package trace

import (
	"math/rand"
	"testing"
	"time"
)

// This file proves the single-pass analyzer, the zero-copy Window and
// the reorder-buffer Record equivalent to the seed implementations:
// the reference functions below replicate, scan for scan, the original
// per-metric code (independent full scans over a copying window, with
// packets kept sorted by per-record insertion sort).

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

func TestAnalyzeMatchesSeedScans(t *testing.T) {
	filters := []struct {
		name string
		f    FlowFilter
	}{
		{"all", AllFlows},
		{"storage", func(f FlowInfo) bool { return f.ServerName == "storage.example" }},
		{"none", func(FlowInfo) bool { return false }},
	}
	for seed := int64(1); seed <= 5; seed++ {
		c, ref := randomCapture(seed, 400)
		for _, flt := range filters {
			name, f := flt.name, flt.f
			set := refSet(c.Flows(), f)
			a := c.Analyze(f)
			if want := refTotalWireBytes(ref.packets, set); a.TotalWire != want {
				t.Errorf("seed %d %s: TotalWire = %d, want %d", seed, name, a.TotalWire, want)
			}
			if want := refWireBytesDir(ref.packets, set, Upstream); a.WireUp != want {
				t.Errorf("seed %d %s: WireUp = %d, want %d", seed, name, a.WireUp, want)
			}
			if want := refWireBytesDir(ref.packets, set, Downstream); a.WireDown != want {
				t.Errorf("seed %d %s: WireDown = %d, want %d", seed, name, a.WireDown, want)
			}
			if want := refPayloadBytesDir(ref.packets, set, Upstream); a.PayloadUp != want {
				t.Errorf("seed %d %s: PayloadUp = %d, want %d", seed, name, a.PayloadUp, want)
			}
			if want := refPayloadBytesDir(ref.packets, set, Downstream); a.PayloadDown != want {
				t.Errorf("seed %d %s: PayloadDown = %d, want %d", seed, name, a.PayloadDown, want)
			}
			first, ok1 := refFirstPayloadTime(ref.packets, set)
			last, ok2 := refLastPayloadTime(ref.packets, set)
			if a.HasPayload != ok1 || ok1 != ok2 {
				t.Errorf("seed %d %s: HasPayload = %v, want %v/%v", seed, name, a.HasPayload, ok1, ok2)
			}
			if ok1 && (!a.FirstPayload.Equal(first) || !a.LastPayload.Equal(last)) {
				t.Errorf("seed %d %s: payload bracket = [%v, %v], want [%v, %v]",
					seed, name, a.FirstPayload, a.LastPayload, first, last)
			}
			syns := refSYNTimes(ref.packets, set)
			if a.Connections != len(syns) || len(a.SYNTimes) != len(syns) {
				t.Errorf("seed %d %s: Connections = %d, want %d", seed, name, a.Connections, len(syns))
			}
			for i := range syns {
				if !a.SYNTimes[i].Equal(syns[i]) {
					t.Errorf("seed %d %s: SYNTimes[%d] = %v, want %v", seed, name, i, a.SYNTimes[i], syns[i])
				}
			}
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
