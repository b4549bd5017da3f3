package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// This file pins the span-record contract: a span must be
// indistinguishable, through every analyzer and both sinks, from
// recording its constituent slices one by one.

func testSpan(tms int, flow FlowID, dir Direction, slices int, sliceBytes, lastBytes int64, gapMs int) Packet {
	return Span(at(tms), flow, dir, Flags{ACK: true}, slices, sliceBytes, lastBytes,
		time.Duration(gapMs)*time.Millisecond)
}

func TestSpanTotalsEqualSliceSums(t *testing.T) {
	sp := testSpan(0, 0, Upstream, 5, 30_000, 12_345, 40)
	var pay, wire, ack int64
	var segs, count int
	for i := 0; i < sp.SliceCount(); i++ {
		s := sp.SliceAt(i)
		if s.IsSpan() {
			t.Fatalf("slice %d is itself a span", i)
		}
		pay += s.Payload
		wire += s.Wire
		ack += s.AckWire
		segs += s.Segments
		count++
		if want := sp.Time.Add(time.Duration(i) * sp.SliceGap); !s.Time.Equal(want) {
			t.Fatalf("slice %d at %v, want %v", i, s.Time, want)
		}
	}
	if count != 5 || pay != sp.Payload || wire != sp.Wire || ack != sp.AckWire || segs != sp.Segments {
		t.Fatalf("slice sums (n=%d pay=%d wire=%d ack=%d segs=%d) != span totals %+v",
			count, pay, wire, ack, segs, sp)
	}
	if !sp.End().Equal(sp.SliceAt(4).Time) {
		t.Fatalf("End %v != last slice time %v", sp.End(), sp.SliceAt(4).Time)
	}
	if sp.SliceAt(4).Payload != 12_345 {
		t.Fatalf("last slice payload = %d", sp.SliceAt(4).Payload)
	}
	if sp.SliceAt(0).Payload != 30_000 {
		t.Fatalf("full slice payload = %d", sp.SliceAt(0).Payload)
	}
}

func TestSpanClipHalfOpenSemantics(t *testing.T) {
	// Slices at 100, 140, 180, 220 ms.
	sp := testSpan(100, 0, Upstream, 4, 10_000, 10_000, 40)
	cases := []struct {
		from, to   int
		wantSlices int // expanded record count of the clip; 0 = excluded
		wantFirst  int // ms of the clip's first slice
	}{
		{0, 1000, 4, 100},  // containing window: span unchanged
		{100, 221, 4, 100}, // exact bounds: from inclusive, to exclusive
		{100, 220, 3, 100}, // to at the last slice excludes it
		{101, 1000, 3, 140},
		{140, 180, 1, 140}, // single slice -> plain record
		{141, 180, 0, 0},   // between slices
		{0, 100, 0, 0},     // ends exactly at the first slice
		{221, 1000, 0, 0},  // starts after the last slice
	}
	for _, c := range cases {
		cl, ok := sp.Clip(at(c.from), at(c.to))
		if c.wantSlices == 0 {
			if ok {
				t.Errorf("clip [%d,%d): got %+v, want excluded", c.from, c.to, cl)
			}
			continue
		}
		if !ok || cl.SliceCount() != c.wantSlices || !cl.Time.Equal(at(c.wantFirst)) {
			t.Errorf("clip [%d,%d): got ok=%v slices=%d start=%v, want %d slices at %v",
				c.from, c.to, ok, cl.SliceCount(), cl.Time, c.wantSlices, at(c.wantFirst))
			continue
		}
		// The clip's totals must equal the sum of the in-window slices.
		var pay int64
		n := 0
		for i := 0; i < sp.SliceCount(); i++ {
			s := sp.SliceAt(i)
			if !s.Time.Before(at(c.from)) && s.Time.Before(at(c.to)) {
				pay += s.Payload
				n++
			}
		}
		if cl.Payload != pay || cl.SliceCount() != n {
			t.Errorf("clip [%d,%d): payload %d over %d slices, want %d over %d",
				c.from, c.to, cl.Payload, cl.SliceCount(), pay, n)
		}
	}
}

// canonicalTies sorts records sharing an exact timestamp into a
// deterministic field order, so two traces can be compared
// record-for-record without depending on the (unspecified) relative
// order of equal-time records from independent connections.
func canonicalTies(ps []Packet) []Packet {
	out := append([]Packet(nil), ps...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Payload != b.Payload {
			return a.Payload < b.Payload
		}
		return a.Wire < b.Wire
	})
	return out
}

// recordSpanOrPlain records p into the capture/streamer under test and
// its expanded slices into the reference capture, mimicking the old
// engine that recorded every slice individually.
func recordSpanOrPlain(c *Capture, s *Streamer, ref *Capture, p Packet) {
	c.Record(p)
	if s != nil {
		s.Record(p)
	}
	for i := 0; i < p.SliceCount(); i++ {
		ref.Record(p.SliceAt(i))
	}
}

// buildSpanTrace records a random mix of plain records and spans into
// a capture, a streamer (windows pre-registered at the given bounds)
// and a slice-by-slice reference capture.
func buildSpanTrace(rng *rand.Rand, bounds [][2]int) (*Capture, *Streamer, []*StreamWindow, *Capture) {
	c, s, ref := NewCapture(), NewStreamer(), NewCapture()
	nFlows := 1 + rng.Intn(4)
	names := []string{"storage.example", "control.example"}
	for i := 0; i < nFlows; i++ {
		key := FlowKey{ClientAddr: "10.0.0.1", ClientPort: 40000 + i, ServerAddr: "203.0.113.9", ServerPort: 443}
		name := names[rng.Intn(len(names))]
		c.OpenFlow(key, name, t0)
		s.OpenFlow(key, name, t0)
		ref.OpenFlow(key, name, t0)
	}
	var wins []*StreamWindow
	for _, b := range bounds {
		wins = append(wins, s.AddWindow(at(b[0]), at(b[1])))
	}
	now := 0
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		now += rng.Intn(300)
		flow := FlowID(rng.Intn(nFlows))
		dir := Direction(rng.Intn(2))
		switch rng.Intn(4) {
		case 0: // control packet
			p := Packet{Time: at(now), Flow: flow, Dir: Upstream, Wire: 74, Segments: 1}
			if rng.Intn(2) == 0 {
				p.Flags = Flags{SYN: true}
			} else {
				p.Flags = Flags{ACK: true}
			}
			recordSpanOrPlain(c, s, ref, p)
		case 1: // plain data record
			pay := int64(1 + rng.Intn(20_000))
			segs := Segments(pay)
			recordSpanOrPlain(c, s, ref, Packet{
				Time: at(now), Flow: flow, Dir: dir, Flags: Flags{ACK: true},
				Payload: pay, Wire: pay + int64(segs)*HeaderPerSeg,
				Segments: segs, AckWire: DelayedAckWire(segs),
			})
		default: // span
			slices := 2 + rng.Intn(30)
			sliceBytes := int64(1460 * (1 + rng.Intn(40)))
			lastBytes := int64(1 + rng.Intn(int(sliceBytes)))
			gap := time.Duration(1+rng.Intn(80)) * time.Millisecond
			recordSpanOrPlain(c, s, ref, Span(at(now), flow, dir, Flags{ACK: true},
				slices, sliceBytes, lastBytes, gap))
		}
	}
	return c, s, wins, ref
}

// TestSpanTraceMatchesSliceBySliceReference is the span pipeline's
// equivalence oracle: random span-bearing traces analyzed through the
// capture (whole, windowed, per-packet detectors) and through
// pre-registered streaming windows must match a reference capture that
// recorded every slice individually.
func TestSpanTraceMatchesSliceBySliceReference(t *testing.T) {
	const horizon = 40_000
	filters := []FlowFilter{nil, AllFlows,
		func(f FlowInfo) bool { return f.ServerName == "storage.example" },
		func(f FlowInfo) bool { return f.ID%2 == 0 },
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bounds := [][2]int{{0, horizon}, {0, 0}}
		for i := 0; i < 3; i++ {
			lo := rng.Intn(horizon)
			hi := lo + rng.Intn(horizon-lo+1)
			bounds = append(bounds, [2]int{lo, hi})
		}
		// Streaming windows must be registered before traffic, so the
		// random bounds come first; the trace then records freely.
		c, _, wins, ref := buildSpanTrace(rng, bounds)

		// Whole-capture expansion reproduces the reference exactly.
		if got, want := c.ExpandedPackets(), ref.Packets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: expanded packets diverge from slice-by-slice reference", seed)
		}
		// Per-packet detectors run on the expanded view.
		for _, f := range filters[1:] {
			if got, want := c.Bursts(f, 150*time.Millisecond), ref.Bursts(f, 150*time.Millisecond); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Bursts diverge", seed)
			}
			if got, want := c.UploadPauses(f, 200*time.Millisecond), ref.UploadPauses(f, 200*time.Millisecond); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: UploadPauses diverge", seed)
			}
			if got, want := c.CumulativeBytes(f), ref.CumulativeBytes(f); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: CumulativeBytes diverge", seed)
			}
		}
		if got, want := c.FlowBytes(), ref.FlowBytes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: FlowBytes diverge: %v vs %v", seed, got, want)
		}

		// Windows cut through spans: capture views and streaming folds
		// both match the reference window.
		for wi, b := range bounds {
			from, to := at(b[0]), at(b[1])
			refWin := ref.Window(from, to)
			capWin := c.Window(from, to)
			// Expansion can order slices of *different* records that
			// share an exact instant differently from the reference
			// (the relative order of equal-time records from
			// independent connections is not part of any analyzer's
			// contract), so the record comparison is canonicalized
			// within tie groups.
			got := canonicalTies(capWin.ExpandedPackets())
			want := canonicalTies(refWin.Packets())
			if len(got) != len(want) {
				t.Fatalf("seed %d window %d: %d expanded records, want %d", seed, wi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d window %d: record %d differs\n got  %+v\n want %+v", seed, wi, i, got[i], want[i])
				}
			}
			for fi, f := range filters {
				want := refWin.Analyze(f)
				if got := capWin.Analyze(f); !analysesEqual(want, got) {
					t.Fatalf("seed %d window %d filter %d: capture analysis diverges\n got  %+v\n want %+v",
						seed, wi, fi, got, want)
				}
				if got := wins[wi].Analyze(f); !analysesEqual(want, got) {
					t.Fatalf("seed %d window %d filter %d: streaming analysis diverges\n got  %+v\n want %+v",
						seed, wi, fi, got, want)
				}
			}
			if got, want := wins[wi].FlowBytes(), refWin.FlowBytes(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %d: streaming FlowBytes diverge", seed, wi)
			}
		}
	}
}

// TestSpanCSVRoundTrip pins the v2 trace format: span records survive
// WriteCSV/ReadCSV with their slicing parameters intact.
func TestSpanCSVRoundTrip(t *testing.T) {
	c := NewCapture()
	id := c.OpenFlow(FlowKey{ClientAddr: "10.0.0.1", ClientPort: 40000,
		ServerAddr: "203.0.113.9", ServerPort: 443}, "storage.example", t0)
	c.Record(Packet{Time: at(0), Flow: id, Dir: Upstream, Flags: Flags{SYN: true}, Wire: 74, Segments: 1})
	c.Record(testSpan(50, id, Upstream, 7, 29_200, 11_111, 33))
	c.Record(Packet{Time: at(400), Flow: id, Dir: Downstream, Flags: Flags{ACK: true},
		Payload: 120, Wire: 186, Segments: 1})

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Packets(), back.Packets()) {
		t.Fatalf("span round trip lost data:\n%+v\n%+v", c.Packets(), back.Packets())
	}
	if back.SpanCount() != 1 || back.ExpandedLen() != 9 {
		t.Fatalf("reloaded capture: %d spans, %d expanded records", back.SpanCount(), back.ExpandedLen())
	}
}

// TestReadCSVRejectsCorruptSpan pins the span invariant check: totals
// that disagree with the slicing parameters must fail the load.
func TestReadCSVRejectsCorruptSpan(t *testing.T) {
	good := "#cloudbench-trace-v2\nf,0,10.0.0.1,4000,5.5.5.5,443,0,s.example,1382486400000000000\n"
	cases := []string{
		// Wire total off by one.
		good + "p,1382486400000000000,0,0,A,2920,3053,2,66,2,1460,1000000\n",
		// Last slice larger than the full slices.
		good + "p,1382486400000000000,0,0,A,4000,4132,2,66,2,1460,1000000\n",
		// Plain record carrying span leftovers.
		good + "p,1382486400000000000,0,0,A,100,166,1,0,0,1460,0\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("case %d: corrupt span accepted", i)
		}
	}
}

// TestStreamerRejectsWindowInsideRecordedSpan pins the streaming
// registration guard against spans: the discarded record's slices
// extend to End(), so a window starting before that instant could
// silently miss traffic.
func TestStreamerRejectsWindowInsideRecordedSpan(t *testing.T) {
	s := NewStreamer()
	id := s.OpenFlow(FlowKey{}, "x", at(0))
	sp := testSpan(100, id, Upstream, 10, 1460, 1460, 50) // occupies [100ms, 550ms]
	s.Record(sp)
	defer func() {
		if recover() == nil {
			t.Fatal("AddWindow inside a recorded span's extent did not panic")
		}
	}()
	s.AddWindow(at(300), FarFuture)
}
