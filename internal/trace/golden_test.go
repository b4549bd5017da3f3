package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file checks the one Sect. 5 fold (StreamWindow's accumulator,
// which Capture.Analyze replays buffered records through), Window's
// time cut and the reorder-buffer Record against the seed
// implementations. The reference functions below replicate, scan for
// scan, the original per-metric code: independent full scans over a
// copying window, with packets kept sorted by per-record insertion
// sort and spans recorded slice by slice. They share no code with the
// fold, so they pin what it computes rather than only that the two
// trace modes agree.

// refCapture is the seed recording scheme: insertion sort per record.
type refCapture struct {
	packets []Packet
}

func (c *refCapture) record(p Packet) {
	c.packets = append(c.packets, p)
	for i := len(c.packets) - 1; i > 0 && c.packets[i].Time.Before(c.packets[i-1].Time); i-- {
		c.packets[i], c.packets[i-1] = c.packets[i-1], c.packets[i]
	}
}

// refWindow is the seed Window: a copying filter scan.
func refWindow(packets []Packet, from, to time.Time) []Packet {
	var sub []Packet
	for _, p := range packets {
		if !p.Time.Before(from) && p.Time.Before(to) {
			sub = append(sub, p)
		}
	}
	return sub
}

func refSet(flows []FlowInfo, f FlowFilter) []bool {
	set := make([]bool, len(flows))
	for i, fl := range flows {
		set[i] = f == nil || f(fl)
	}
	return set
}

func refPacketCount(packets []Packet, set []bool) int {
	n := 0
	for _, p := range packets {
		if set[p.Flow] {
			n++
		}
	}
	return n
}

func refTotalWireBytes(packets []Packet, set []bool) int64 {
	var total int64
	for _, p := range packets {
		if set[p.Flow] {
			total += p.Wire + p.AckWire
		}
	}
	return total
}

func refWireBytesDir(packets []Packet, set []bool, dir Direction) int64 {
	var total int64
	for _, p := range packets {
		if !set[p.Flow] {
			continue
		}
		if p.Dir == dir {
			total += p.Wire
		} else {
			total += p.AckWire
		}
	}
	return total
}

func refPayloadBytesDir(packets []Packet, set []bool, dir Direction) int64 {
	var total int64
	for _, p := range packets {
		if set[p.Flow] && p.Dir == dir {
			total += p.Payload
		}
	}
	return total
}

func refFirstPayloadTime(packets []Packet, set []bool) (time.Time, bool) {
	for _, p := range packets {
		if set[p.Flow] && p.HasPayload() {
			return p.Time, true
		}
	}
	return time.Time{}, false
}

func refLastPayloadTime(packets []Packet, set []bool) (time.Time, bool) {
	for i := len(packets) - 1; i >= 0; i-- {
		p := packets[i]
		if set[p.Flow] && p.HasPayload() {
			return p.Time, true
		}
	}
	return time.Time{}, false
}

func refSYNTimes(packets []Packet, set []bool) []time.Time {
	var out []time.Time
	for _, p := range packets {
		if set[p.Flow] && p.Flags.SYN && !p.Flags.ACK && p.Dir == Upstream {
			out = append(out, p.Time)
		}
	}
	return out
}

// randomCapture builds a capture with out-of-order records, duplicate
// timestamps and several flows, returning both the new engine's
// capture and a reference seed-recorded packet slice.
func randomCapture(seed int64, n int) (*Capture, *refCapture) {
	rng := rand.New(rand.NewSource(seed))
	c := NewCapture()
	ref := &refCapture{}
	nFlows := 2 + rng.Intn(6)
	for i := 0; i < nFlows; i++ {
		c.OpenFlow(FlowKey{ClientPort: 40000 + i, ServerPort: 443}, []string{"storage.example", "control.example"}[i%2], t0)
	}
	now := t0
	for i := 0; i < n; i++ {
		// Mostly forward motion with occasional stragglers and ties.
		switch rng.Intn(10) {
		case 0:
			now = now.Add(-time.Duration(rng.Intn(2000)) * time.Millisecond)
		case 1: // tie: reuse now
		default:
			now = now.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
		}
		p := Packet{
			Time:     now,
			Flow:     FlowID(rng.Intn(nFlows)),
			Dir:      Direction(rng.Intn(2)),
			Payload:  int64(rng.Intn(3)) * 1460,
			Wire:     int64(66 + rng.Intn(1500)),
			AckWire:  int64(rng.Intn(2)) * 66,
			Segments: 1 + rng.Intn(3),
		}
		if rng.Intn(12) == 0 {
			p.Flags = Flags{SYN: true, ACK: rng.Intn(2) == 0}
			p.Dir = Upstream
			p.Payload = 0
		}
		c.Record(p)
		ref.record(p)
	}
	return c, ref
}

func TestRecordMatchesSeedInsertionSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c, ref := randomCapture(seed, 500)
		got := c.Packets()
		if len(got) != len(ref.packets) {
			t.Fatalf("seed %d: %d packets, want %d", seed, len(got), len(ref.packets))
		}
		for i := range got {
			if got[i] != ref.packets[i] {
				t.Fatalf("seed %d: packet %d differs:\n got %+v\nwant %+v", seed, i, got[i], ref.packets[i])
			}
		}
	}
}

// scanFilters are the flow selections the seed-scan tests analyze.
var scanFilters = []struct {
	name string
	f    FlowFilter
}{
	{"all", AllFlows},
	{"storage", func(f FlowInfo) bool { return f.ServerName == "storage.example" }},
	{"none", func(FlowInfo) bool { return false }},
}

func TestAnalyzeMatchesSeedScans(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, ref := randomCapture(seed, 400)
		for _, flt := range scanFilters {
			checkScans(t, fmt.Sprintf("seed %d %s", seed, flt.name),
				c.Analyze(flt.f), ref.packets, refSet(c.Flows(), flt.f))
		}
	}
}

// checkScans compares one Analysis field by field against the seed
// scans over the reference records it should summarize.
func checkScans(t *testing.T, name string, a Analysis, packets []Packet, set []bool) {
	t.Helper()
	if want := refPacketCount(packets, set); a.Packets != want {
		t.Errorf("%s: Packets = %d, want %d", name, a.Packets, want)
	}
	if want := refTotalWireBytes(packets, set); a.TotalWire != want {
		t.Errorf("%s: TotalWire = %d, want %d", name, a.TotalWire, want)
	}
	if want := refWireBytesDir(packets, set, Upstream); a.WireUp != want {
		t.Errorf("%s: WireUp = %d, want %d", name, a.WireUp, want)
	}
	if want := refWireBytesDir(packets, set, Downstream); a.WireDown != want {
		t.Errorf("%s: WireDown = %d, want %d", name, a.WireDown, want)
	}
	if want := refPayloadBytesDir(packets, set, Upstream); a.PayloadUp != want {
		t.Errorf("%s: PayloadUp = %d, want %d", name, a.PayloadUp, want)
	}
	if want := refPayloadBytesDir(packets, set, Downstream); a.PayloadDown != want {
		t.Errorf("%s: PayloadDown = %d, want %d", name, a.PayloadDown, want)
	}
	first, ok1 := refFirstPayloadTime(packets, set)
	last, ok2 := refLastPayloadTime(packets, set)
	if a.HasPayload != ok1 || ok1 != ok2 {
		t.Errorf("%s: HasPayload = %v, want %v/%v", name, a.HasPayload, ok1, ok2)
	}
	if ok1 && (!a.FirstPayload.Equal(first) || !a.LastPayload.Equal(last)) {
		t.Errorf("%s: payload bracket = [%v, %v], want [%v, %v]",
			name, a.FirstPayload, a.LastPayload, first, last)
	}
	syns := refSYNTimes(packets, set)
	if a.Connections != len(syns) || len(a.SYNTimes) != len(syns) {
		t.Errorf("%s: Connections = %d, want %d", name, a.Connections, len(syns))
		return
	}
	for i := range syns {
		if !a.SYNTimes[i].Equal(syns[i]) {
			t.Errorf("%s: SYNTimes[%d] = %v, want %v", name, i, a.SYNTimes[i], syns[i])
		}
	}
}

func TestWindowMatchesSeedCopyingWindow(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, ref := randomCapture(seed, 400)
		sorted := c.Packets()
		lastT := sorted[len(sorted)-1].Time
		cuts := []struct{ from, to time.Time }{
			{t0, FarFuture},
			{t0.Add(time.Second), lastT},
			{t0.Add(5 * time.Second), t0.Add(10 * time.Second)},
			{lastT, lastT},                             // empty
			{t0.Add(time.Hour), FarFuture},             // past the end
			{t0.Add(-time.Hour), t0.Add(-time.Minute)}, // before the start
		}
		for _, cut := range cuts {
			got := c.Window(cut.from, cut.to).Packets()
			want := refWindow(ref.packets, cut.from, cut.to)
			if len(got) != len(want) {
				t.Fatalf("seed %d window [%v,%v): %d packets, want %d",
					seed, cut.from, cut.to, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d window [%v,%v): packet %d differs", seed, cut.from, cut.to, i)
				}
			}
		}
	}
}

// randomSpanCapture records a random trace with spans, SYNs in both
// directions, stragglers and ties into a capture and into a streamer
// whose windows are registered first at the given cuts. The reference
// records every span slice by slice, as the seed engine did.
func randomSpanCapture(seed int64, cuts [][2]time.Time) (*Capture, []*StreamWindow, *refCapture) {
	rng := rand.New(rand.NewSource(seed))
	c, s, ref := NewCapture(), NewStreamer(), &refCapture{}
	nFlows := 1 + rng.Intn(5)
	for i := 0; i < nFlows; i++ {
		key := FlowKey{ClientPort: 40000 + i, ServerPort: 443}
		name := []string{"storage.example", "control.example"}[rng.Intn(2)]
		c.OpenFlow(key, name, t0)
		s.OpenFlow(key, name, t0)
	}
	wins := make([]*StreamWindow, len(cuts))
	for i, cut := range cuts {
		wins[i] = s.AddWindow(cut[0], cut[1])
	}
	now := 0
	for i, n := 0, rng.Intn(300); i < n; i++ {
		now += rng.Intn(60)
		ts := now
		if rng.Intn(6) == 0 {
			ts = max(0, now-rng.Intn(500)) // straggler
		}
		flow, dir := FlowID(rng.Intn(nFlows)), Direction(rng.Intn(2))
		var p Packet
		switch rng.Intn(5) {
		case 0: // SYN or SYN-ACK, either way
			p = Packet{Time: at(ts), Flow: flow, Dir: dir,
				Flags: Flags{SYN: true, ACK: rng.Intn(2) == 0}, Wire: 74, Segments: 1}
		case 1: // pure control
			p = Packet{Time: at(ts), Flow: flow, Dir: dir, Flags: Flags{ACK: true}, Wire: 66, Segments: 1}
		case 2, 3: // plain data record
			pay := int64(1 + rng.Intn(6000))
			segs := Segments(pay)
			p = Packet{Time: at(ts), Flow: flow, Dir: dir, Flags: Flags{ACK: true},
				Payload: pay, Wire: pay + int64(segs)*HeaderPerSeg,
				Segments: segs, AckWire: DelayedAckWire(segs)}
		default: // span, sometimes with all slices at one instant
			sliceBytes := int64(MSS * (1 + rng.Intn(20)))
			gap := time.Duration(rng.Intn(60)) * time.Millisecond
			p = Span(at(ts), flow, dir, Flags{ACK: true}, 2+rng.Intn(20),
				sliceBytes, 1+rng.Int63n(sliceBytes), gap)
		}
		c.Record(p)
		s.Record(p)
		for j := 0; j < p.SliceCount(); j++ {
			ref.record(p.SliceAt(j))
		}
	}
	return c, wins, ref
}

// TestWindowsMatchSeedScans runs the seed scans over span-bearing
// traces and random [from, to) cuts: the whole-capture Analyze, every
// Capture.Window(...).Analyze and every streamed window must equal the
// scans over the slice-by-slice reference.
func TestWindowsMatchSeedScans(t *testing.T) {
	const horizon = 20_000
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		cuts := [][2]time.Time{{t0, FarFuture}, {at(100), at(100)}}
		for i := 0; i < 4; i++ {
			lo := rng.Intn(horizon)
			cuts = append(cuts, [2]time.Time{at(lo), at(lo + rng.Intn(horizon-lo+1))})
		}
		c, wins, ref := randomSpanCapture(seed, cuts)
		for _, flt := range scanFilters {
			set := refSet(c.Flows(), flt.f)
			checkScans(t, fmt.Sprintf("seed %d %s whole", seed, flt.name), c.Analyze(flt.f), ref.packets, set)
			for i, cut := range cuts {
				want := refWindow(ref.packets, cut[0], cut[1])
				name := fmt.Sprintf("seed %d %s cut %d", seed, flt.name, i)
				checkScans(t, name+" window", c.Window(cut[0], cut[1]).Analyze(flt.f), want, set)
				checkScans(t, name+" streamed", wins[i].Analyze(flt.f), want, set)
			}
		}
		for i, cut := range cuts {
			want := refWindow(ref.packets, cut[0], cut[1])
			cw, sw := c.Window(cut[0], cut[1]).FlowBytes(), wins[i].FlowBytes()
			for id := range c.Flows() {
				one := make([]bool, c.NumFlows())
				one[id] = true
				if b := refTotalWireBytes(want, one); cw[id] != b || sw[id] != b {
					t.Errorf("seed %d cut %d flow %d: FlowBytes window %d, streamed %d, want %d",
						seed, i, id, cw[id], sw[id], b)
				}
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestWindowHalfOpenSemantics pins the [from, to) contract exactly:
// a packet at from is included, a packet at to is excluded.
func TestWindowHalfOpenSemantics(t *testing.T) {
	c := NewCapture()
	id := c.OpenFlow(FlowKey{}, "x", at(0))
	for ms := 0; ms <= 40; ms += 10 {
		c.Record(Packet{Time: at(ms), Flow: id, Wire: int64(ms + 1)})
	}
	w := c.Window(at(10), at(30))
	if w.Len() != 2 {
		t.Fatalf("window [10,30) has %d packets, want 2", w.Len())
	}
	ps := w.Packets()
	if !ps[0].Time.Equal(at(10)) || !ps[1].Time.Equal(at(20)) {
		t.Fatalf("window [10,30) = %v, %v", ps[0].Time, ps[1].Time)
	}
	if got := c.Window(at(10), at(10)).Len(); got != 0 {
		t.Fatalf("empty window has %d packets", got)
	}
	// Equal timestamps at the boundary: all of them are included.
	c2 := NewCapture()
	id2 := c2.OpenFlow(FlowKey{}, "x", at(0))
	c2.Record(Packet{Time: at(5), Flow: id2, Wire: 1})
	c2.Record(Packet{Time: at(5), Flow: id2, Wire: 2})
	c2.Record(Packet{Time: at(5), Flow: id2, Wire: 3})
	if got := c2.Window(at(5), at(6)).Len(); got != 3 {
		t.Fatalf("tied boundary window has %d packets, want 3", got)
	}
}

// TestWindowViewIsSnapshot pins the zero-copy contract: records added
// after a view is taken never appear in it, even when stragglers force
// a reorder-buffer merge.
func TestWindowViewIsSnapshot(t *testing.T) {
	c := NewCapture()
	id := c.OpenFlow(FlowKey{}, "x", at(0))
	c.Record(Packet{Time: at(10), Flow: id, Wire: 1})
	c.Record(Packet{Time: at(20), Flow: id, Wire: 2})
	w := c.Window(at(0), FarFuture)
	c.Record(Packet{Time: at(5), Flow: id, Wire: 3}) // straggler -> merge
	c.Record(Packet{Time: at(30), Flow: id, Wire: 4})
	if w.Len() != 2 {
		t.Fatalf("view grew to %d packets after later records", w.Len())
	}
	if got := w.Analyze(AllFlows).TotalWire; got != 3 {
		t.Fatalf("view bytes = %d, want 3", got)
	}
	if c.Len() != 4 {
		t.Fatalf("parent has %d packets, want 4", c.Len())
	}
	if got := c.Analyze(AllFlows).TotalWire; got != 10 {
		t.Fatalf("parent bytes = %d, want 10", got)
	}
}

func TestFlowsWithTrafficIndexedByFlowID(t *testing.T) {
	c := NewCapture()
	a := c.OpenFlow(FlowKey{ClientPort: 1}, "a", at(0))
	c.OpenFlow(FlowKey{ClientPort: 2}, "b", at(0))
	third := c.OpenFlow(FlowKey{ClientPort: 3}, "c", at(0))
	c.Record(Packet{Time: at(1), Flow: a, Wire: 10})
	c.Record(Packet{Time: at(2), Flow: third, Wire: 10})
	active := c.FlowsWithTraffic()
	if len(active) != 3 {
		t.Fatalf("FlowsWithTraffic len = %d, want NumFlows = 3", len(active))
	}
	if !active[0] || active[1] || !active[2] {
		t.Fatalf("FlowsWithTraffic = %v, want [true false true]", active)
	}
}
