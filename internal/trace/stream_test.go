package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestStreamerMatchesCaptureRandomized is the streaming pipeline's
// equivalence oracle: random flow populations, random packet
// workloads with a few spans, random out-of-order record
// interleavings and random window bounds — some on record instants,
// some on and between span slices — asserting that the fold-at-record-time StreamWindow
// produces field-for-field the same Analysis as buffering everything
// in a Capture and running Window(...).Analyze(...) afterwards —
// including the SYNTimes order and the HasPayload payload bracket.
// A recorder registered mid-stream at a random quiet instant must
// hold exactly the capture's Window from that instant on: the same
// per-round packets and the same flow table.
func TestStreamerMatchesCaptureRandomized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wins, cwins, filters, rec, crec := buildRandomPair(rng)
		if got, want := rec.ExpandedPackets(), crec.ExpandedPackets(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: recorder holds %d packets, capture window %d, or they differ", seed, len(got), len(want))
		}
		if got, want := rec.Flows(), crec.Flows(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: recorder flows %v, capture %v", seed, got, want)
		}

		for wi := range wins {
			for fi, f := range filters {
				want := cwins[wi].Analyze(f)
				got := wins[wi].Analyze(f)
				if !analysesEqual(want, got) {
					t.Fatalf("seed %d window %d filter %d:\n capture  %+v\n streamer %+v",
						seed, wi, fi, want, got)
				}
			}
			if want, got := cwins[wi].FlowBytes(), wins[wi].FlowBytes(); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d window %d FlowBytes: capture %v streamer %v", seed, wi, want, got)
			}
		}
	}
}

// buildRandomPair records one random trace into both a Capture and a
// Streamer and returns matching window views over both, plus a
// recorder the Streamer fed and the Capture's window over its range.
func buildRandomPair(rng *rand.Rand) ([]*StreamWindow, []*Capture, []FlowFilter, *Capture, *Capture) {
	cap := NewCapture()
	str := NewStreamer()

	// Random flow population across two server names, so name filters
	// select non-trivial subsets.
	names := []string{"control.example", "storage.example"}
	nFlows := 1 + rng.Intn(6)
	for i := 0; i < nFlows; i++ {
		key := FlowKey{
			ClientAddr: "10.0.0.1", ClientPort: 40000 + i,
			ServerAddr: "203.0.113.9", ServerPort: 443, Proto: TCP,
		}
		name := names[rng.Intn(len(names))]
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		a := cap.OpenFlow(key, name, t0.Add(at))
		b := str.OpenFlow(key, name, t0.Add(at))
		if a != b {
			panic("flow IDs diverged")
		}
	}

	// Windows spanning the whole packet time range and random interior
	// slices; [x, x) exercises the empty-window edge.
	const horizonMs = 10_000
	var bounds [][2]time.Time
	for _, b := range [][2]int{{0, horizonMs}, {0, 0}} {
		bounds = append(bounds, [2]time.Time{at(b[0]), at(b[1])})
	}
	for i := 0; i < 3; i++ {
		lo := rng.Intn(horizonMs)
		hi := lo + rng.Intn(horizonMs-lo+1)
		bounds = append(bounds, [2]time.Time{at(lo), at(hi)})
	}

	// Random workload: mostly in-order timestamps with out-of-order
	// stragglers (negative jitter), duplicate timestamps to exercise
	// the stable-order tie-break, SYNs in both directions, zero-payload
	// control packets and pure-ACK accounting.
	n := rng.Intn(400)
	var pkts []Packet
	base := 0
	for i := 0; i < n; i++ {
		base += rng.Intn(40)
		ts := base
		if rng.Intn(5) == 0 {
			ts -= rng.Intn(200) // straggler from a slower timeline
			if ts < 0 {
				ts = 0
			}
		}
		if ts >= horizonMs {
			ts = horizonMs - 1
		}
		p := Packet{
			Time: at(ts),
			Flow: FlowID(rng.Intn(nFlows)),
			Dir:  Direction(rng.Intn(2)),
		}
		switch rng.Intn(6) {
		case 0: // client SYN
			p.Flags = Flags{SYN: true}
			p.Wire = 74
			p.Segments = 1
		case 1: // SYN-ACK (must not count as a connection)
			p.Flags = Flags{SYN: true, ACK: true}
			p.Wire = 74
			p.Segments = 1
		case 2: // pure control, no payload
			p.Flags = Flags{ACK: true}
			p.Wire = 66
			p.Segments = 1
		default: // data record with delayed-ACK accounting
			p.Flags = Flags{ACK: true}
			p.Payload = int64(1 + rng.Intn(3000))
			p.Wire = p.Payload + 66
			p.Segments = 1 + int(p.Payload/1460)
			p.AckWire = int64(rng.Intn(2)) * 66
		}
		pkts = append(pkts, p)
	}

	// A few data spans at random points of the record stream, so that
	// the window bounds below can split them.
	var spans []Packet
	for i := rng.Intn(4); i > 0; i-- {
		gap := time.Duration(1+rng.Intn(50)) * time.Millisecond
		sliceBytes := int64(MSS * (1 + rng.Intn(8)))
		sp := Span(at(rng.Intn(horizonMs)), FlowID(rng.Intn(nFlows)), Direction(rng.Intn(2)),
			Flags{ACK: true}, 2+rng.Intn(10), sliceBytes, 1+rng.Int63n(sliceBytes), gap)
		spans = append(spans, sp)
		k := rng.Intn(len(pkts) + 1)
		pkts = slices.Insert(pkts, k, sp)
	}

	// Bounds placed exactly on record instants and on and between the
	// slices of a span: the edges where folding a record whole, or
	// clipping a span, could be off by one.
	instant := func() time.Time {
		if len(spans) > 0 && rng.Intn(2) == 0 {
			sp := spans[rng.Intn(len(spans))]
			off := time.Duration(rng.Intn(sp.Slices)) * sp.SliceGap
			if rng.Intn(2) == 0 {
				off += sp.SliceGap / 2
			}
			return sp.Time.Add(off)
		}
		if len(pkts) == 0 {
			return at(rng.Intn(horizonMs))
		}
		return pkts[rng.Intn(len(pkts))].Time
	}
	for i := 0; i < 4; i++ {
		lo, hi := instant(), instant()
		if hi.Before(lo) {
			lo, hi = hi, lo
		}
		bounds = append(bounds, [2]time.Time{lo, hi}, [2]time.Time{lo, FarFuture})
	}

	// The recorder opens at a quiet instant: inside no span, and after
	// every record of the stream's prefix up to its registration
	// point k. Later stragglers may still fall before it; both sides
	// drop them.
	from := instant()
	for moved := true; moved; {
		moved = false
		for _, sp := range spans {
			if sp.Time.Before(from) && !sp.End().Before(from) {
				from, moved = sp.End().Add(time.Nanosecond), true
			}
		}
	}
	k := 0
	for k < len(pkts) && pkts[k].End().Before(from) {
		k++
	}

	// Windows are registered before any record (the streaming
	// contract); the capture's are views taken afterwards.
	var swins []*StreamWindow
	for _, b := range bounds {
		swins = append(swins, str.AddWindow(b[0], b[1]))
	}
	// A connection opened after the recorder registers must reach its
	// flow table too.
	var rec *Capture
	register := func() {
		rec = str.AddRecorder(from)
		key := FlowKey{ClientAddr: "10.0.0.1", ClientPort: 50000, ServerAddr: "203.0.113.9", ServerPort: 443, Proto: TCP}
		cap.OpenFlow(key, names[0], from)
		str.OpenFlow(key, names[0], from)
	}
	for i, p := range pkts {
		if i == k {
			register()
		}
		cap.Record(p)
		str.Record(p)
	}
	if rec == nil {
		register()
	}
	var cwins []*Capture
	for _, b := range bounds {
		cwins = append(cwins, cap.Window(b[0], b[1]))
	}

	filters := []FlowFilter{
		nil,
		AllFlows,
		func(f FlowInfo) bool { return f.ServerName == "storage.example" },
		func(f FlowInfo) bool { return f.ID%2 == 0 },
		func(FlowInfo) bool { return false },
	}
	return swins, cwins, filters, rec, cap.Window(from, FarFuture)
}

// analysesEqual compares two Analysis values field-for-field, treating
// the SYN timelines as equal only when they match element by element
// in order.
func analysesEqual(a, b Analysis) bool {
	if a.Packets != b.Packets ||
		a.TotalWire != b.TotalWire ||
		a.WireUp != b.WireUp || a.WireDown != b.WireDown ||
		a.PayloadUp != b.PayloadUp || a.PayloadDown != b.PayloadDown ||
		a.HasPayload != b.HasPayload ||
		a.Connections != b.Connections ||
		len(a.SYNTimes) != len(b.SYNTimes) {
		return false
	}
	if a.HasPayload && (!a.FirstPayload.Equal(b.FirstPayload) || !a.LastPayload.Equal(b.LastPayload)) {
		return false
	}
	for i := range a.SYNTimes {
		if !a.SYNTimes[i].Equal(b.SYNTimes[i]) {
			return false
		}
	}
	return true
}

// TestAddWindowRejectsLateRegistration pins the streaming contract: a
// window or recorder whose lower bound is not strictly after every
// recorded timestamp would have to see packets that were already
// discarded.
func TestAddWindowRejectsLateRegistration(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(s *Streamer, from time.Time)
	}{
		{"AddWindow", func(s *Streamer, from time.Time) { s.AddWindow(from, FarFuture) }},
		{"AddRecorder", func(s *Streamer, from time.Time) { s.AddRecorder(from) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStreamer()
			id := s.OpenFlow(FlowKey{}, "x", at(0))
			s.Record(Packet{Time: at(100), Flow: id, Wire: 1})
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a lower bound at an already-recorded timestamp", tc.name)
				}
			}()
			tc.register(s, at(100))
		})
	}
}

// TestAddWindowAfterQuietPointOK registers a window strictly after the
// last recorded packet — the benchmark engine's pattern (login settles,
// then the measurement window opens).
func TestAddWindowAfterQuietPointOK(t *testing.T) {
	s := NewStreamer()
	id := s.OpenFlow(FlowKey{}, "x", at(0))
	s.Record(Packet{Time: at(100), Flow: id, Wire: 1, Payload: 5})
	w := s.AddWindow(at(101), FarFuture)
	s.Record(Packet{Time: at(150), Flow: id, Wire: 10, Payload: 7})
	a := w.Analyze(AllFlows)
	if a.Packets != 1 || a.TotalWire != 10 || a.PayloadUp != 7 {
		t.Fatalf("window saw %+v, want only the post-registration packet", a)
	}
	if !a.HasPayload || !a.FirstPayload.Equal(at(150)) || !a.LastPayload.Equal(at(150)) {
		t.Fatalf("payload bracket = %+v", a)
	}
}

// TestRemoveWindowStopsFolding: a removed window keeps what it folded
// but folds nothing recorded after its removal, while the windows
// still registered go on folding.
func TestRemoveWindowStopsFolding(t *testing.T) {
	s := NewStreamer()
	id := s.OpenFlow(FlowKey{}, "x", at(0))
	old := s.AddWindow(at(10), FarFuture)
	kept := s.AddWindow(at(10), FarFuture)
	s.Record(Packet{Time: at(20), Flow: id, Wire: 10, Payload: 4})
	s.RemoveWindow(old)
	s.RemoveWindow(old) // a second removal is a no-op
	s.Record(Packet{Time: at(30), Flow: id, Wire: 100, Payload: 40})
	if a := old.Analyze(AllFlows); a.Packets != 1 || a.TotalWire != 10 {
		t.Fatalf("removed window folded %d packets, %d wire bytes; want only the record before removal", a.Packets, a.TotalWire)
	}
	if a := kept.Analyze(AllFlows); a.Packets != 2 || a.TotalWire != 110 {
		t.Fatalf("registered window folded %d packets, %d wire bytes; want both records", a.Packets, a.TotalWire)
	}
}

// TestStreamerRecordDoesNotAllocate pins the fold's steady state: once
// a flow is open and its window accumulator exists, recording a plain
// record folds it in place without a single allocation.
func TestStreamerRecordDoesNotAllocate(t *testing.T) {
	s := NewStreamer()
	var ids []FlowID
	for i := 0; i < 8; i++ {
		ids = append(ids, s.OpenFlow(FlowKey{ClientPort: 40000 + i}, "storage.example", at(0)))
	}
	s.AddWindow(at(10), FarFuture)
	now := 10
	for _, id := range ids {
		s.Record(Packet{Time: at(now), Flow: id, Flags: Flags{ACK: true}, Wire: 66, Segments: 1})
	}
	recs := []Packet{
		{Flow: ids[3], Dir: Upstream, Flags: Flags{ACK: true}, Payload: 1460, Wire: 1526, Segments: 1, AckWire: 66},
		{Flow: ids[5], Dir: Downstream, Flags: Flags{ACK: true}, Payload: 200, Wire: 266, Segments: 1},
		{Flow: ids[0], Dir: Upstream, Flags: Flags{FIN: true, ACK: true}, Wire: 66, Segments: 1},
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range recs {
			now++
			p.Time = at(now)
			s.Record(p)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record of plain records on open flows allocates %v times per run", allocs)
	}
}
