package trace

import (
	"sort"
	"time"
)

// This file holds the trace analyzers behind every measurement in the
// paper:
//
//   - byte accounting            -> protocol overhead (Fig. 6c, Fig. 4, Fig. 5)
//   - first/last payload packet  -> completion time (Fig. 6b)
//   - SYN timeline               -> connection-per-file detection (Fig. 3)
//   - burst detection            -> sequential-upload detection (Sect. 4.2)
//   - pause detection            -> chunk-size inference (Sect. 4.1)
//   - cumulative byte timeline   -> idle/background traffic (Fig. 1)
//
// The scalar metrics all derive from one single-pass scan, Analyze:
// the measurement engine calls it once per (window, filter) pair and
// reads every Sect. 5 number off the result, where it previously
// re-scanned the trace once per metric. There are no per-metric
// methods: a caller reads the one Analysis it needs.

// Analysis is every scalar trace metric over one flow selection,
// computed in a single scan by Analyze.
type Analysis struct {
	// Packets counts the selected trace records.
	Packets int

	// TotalWire is on-the-wire bytes in both directions, including
	// pure-ACK accounting.
	TotalWire int64
	// WireUp/WireDown are directional wire bytes; ACK bytes carried
	// on a data record count towards the opposite direction (the
	// receiver emits them). TotalWire == WireUp + WireDown.
	WireUp, WireDown int64
	// PayloadUp/PayloadDown are directional application payload
	// bytes.
	PayloadUp, PayloadDown int64

	// FirstPayload/LastPayload bracket the payload-carrying packets;
	// valid only when HasPayload is true. The paper measures
	// completion time between these two instants, tear-down excluded.
	FirstPayload, LastPayload time.Time
	HasPayload                bool

	// SYNTimes are the client-initiated SYN instants in trace order;
	// Connections == len(SYNTimes) (Fig. 3).
	SYNTimes    []time.Time
	Connections int
}

// Analyze computes every scalar metric over the selected flows in one
// scan of the trace. It is the workhorse behind MeasureWindow and the
// per-metric convenience methods.
func (c *Capture) Analyze(f FlowFilter) Analysis {
	c.flush()
	set := c.flowSet(f)
	var a Analysis
	for i := range c.packets {
		p := &c.packets[i]
		if !set[p.Flow] {
			continue
		}
		// Span records fold in O(1): the aggregate fields are totals
		// over the slices, and the payload bracket covers [Time, End].
		a.Packets += p.SliceCount()
		a.TotalWire += p.Wire + p.AckWire
		if p.Dir == Upstream {
			a.WireUp += p.Wire
			a.WireDown += p.AckWire
			a.PayloadUp += p.Payload
			if p.Flags.SYN && !p.Flags.ACK {
				a.SYNTimes = append(a.SYNTimes, p.Time)
			}
		} else {
			a.WireDown += p.Wire
			a.WireUp += p.AckWire
			a.PayloadDown += p.Payload
		}
		if p.Payload > 0 {
			if !a.HasPayload {
				a.FirstPayload = p.Time
				a.HasPayload = true
			}
			// A span's last payload instant (End) can lie beyond the
			// start times of records sorted after it, so the bracket
			// is a max fold rather than last-in-scan-order.
			if end := p.End(); end.After(a.LastPayload) {
				a.LastPayload = end
			}
		}
	}
	a.Connections = len(a.SYNTimes)
	return a
}

// TimelinePoint is one step of a cumulative byte timeline.
type TimelinePoint struct {
	Time  time.Time
	Bytes int64 // cumulative wire bytes up to and including Time
}

// CumulativeBytes returns the cumulative wire-byte timeline across the
// selected flows (both directions), one point per packet (spans
// expanded, so every transmission round is a step). Fig. 1 plots this
// for control traffic while the client is idle.
func (c *Capture) CumulativeBytes(f FlowFilter) []TimelinePoint {
	set := c.flowSet(f)
	var out []TimelinePoint
	var total int64
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] {
			continue
		}
		total += p.Wire + p.AckWire
		out = append(out, TimelinePoint{Time: p.Time, Bytes: total})
	}
	return out
}

// Burst is a run of upstream payload packets not separated by a gap
// larger than the detection threshold. The paper counts bursts to
// detect clients that upload files sequentially, waiting for an
// application-layer acknowledgment between files (SkyDrive, Wuala).
type Burst struct {
	Start, End time.Time
	Bytes      int64 // payload bytes in the burst
	Packets    int
}

// Bursts splits the upstream payload traffic of the selected flows
// into bursts separated by quiet gaps of at least gap. It walks the
// span-expanded trace: intra-span slice gaps are real transmission
// spacing and legitimately merge or split bursts exactly as the
// per-round records did.
func (c *Capture) Bursts(f FlowFilter, gap time.Duration) []Burst {
	set := c.flowSet(f)
	var out []Burst
	var cur *Burst
	var lastEnd time.Time
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] || p.Dir != Upstream || !p.HasPayload() {
			continue
		}
		if cur != nil && p.Time.Sub(lastEnd) >= gap {
			out = append(out, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &Burst{Start: p.Time}
		}
		cur.End = p.Time
		cur.Bytes += p.Payload
		cur.Packets += p.Segments
		lastEnd = p.Time
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// Pause is a quiet period inside an upload, used to infer chunk
// boundaries (Sect. 4.1): a client that splits a large file into
// chunks pauses between chunk submissions while it waits for the
// per-chunk acknowledgment.
type Pause struct {
	At          time.Time // when the quiet period began
	Gap         time.Duration
	BytesBefore int64 // cumulative upstream payload before the pause
}

// UploadPauses returns pauses of at least gap between consecutive
// upstream payload packets over the selected flows, together with the
// cumulative payload uploaded before each pause. Differencing the
// BytesBefore values recovers the chunk size.
func (c *Capture) UploadPauses(f FlowFilter, gap time.Duration) []Pause {
	set := c.flowSet(f)
	var out []Pause
	var last time.Time
	var seen bool
	var cum int64
	for _, p := range c.ExpandedPackets() {
		if !set[p.Flow] || p.Dir != Upstream || !p.HasPayload() {
			continue
		}
		if seen {
			if g := p.Time.Sub(last); g >= gap {
				out = append(out, Pause{At: last, Gap: g, BytesBefore: cum})
			}
		}
		cum += p.Payload
		last = p.Time
		seen = true
	}
	return out
}

// RatePoint is one bucket of a throughput timeline.
type RatePoint struct {
	Time time.Time // bucket start
	Bps  float64   // payload throughput within the bucket
}

// ThroughputTimeline buckets upstream payload into fixed intervals and
// returns the per-bucket rate — the "monitoring throughput during the
// upload" view the paper uses to spot chunking pauses (Sect. 4.1).
// Empty buckets between activity are included (rate 0), so pauses are
// visible; leading/trailing silence is not.
func (c *Capture) ThroughputTimeline(f FlowFilter, bucket time.Duration) []RatePoint {
	if bucket <= 0 {
		panic("trace: non-positive throughput bucket")
	}
	set := c.flowSet(f)
	pkts := c.ExpandedPackets()
	var first, last time.Time
	seen := false
	for _, p := range pkts {
		if set[p.Flow] && p.Dir == Upstream && p.HasPayload() {
			if !seen {
				first = p.Time
				seen = true
			}
			last = p.Time
		}
	}
	if !seen {
		return nil
	}
	n := int(last.Sub(first)/bucket) + 1
	bytes := make([]int64, n)
	for _, p := range pkts {
		if set[p.Flow] && p.Dir == Upstream && p.HasPayload() {
			idx := int(p.Time.Sub(first) / bucket)
			bytes[idx] += p.Payload
		}
	}
	out := make([]RatePoint, n)
	for i, b := range bytes {
		out[i] = RatePoint{
			Time: first.Add(time.Duration(i) * bucket),
			Bps:  float64(b*8) / bucket.Seconds(),
		}
	}
	return out
}

// FlowBytes returns total wire bytes per flow, indexed by FlowID. The
// paper uses per-flow sizes to tell Wuala's storage flows from its
// control flows, since Wuala does not split them by server name.
func (c *Capture) FlowBytes() []int64 {
	c.flush()
	out := make([]int64, len(c.flows))
	for i := range c.packets {
		p := &c.packets[i]
		out[p.Flow] += p.Wire + p.AckWire
	}
	return out
}

// FarFuture is an instant beyond any simulated timeline, usable as an
// open upper bound for Window.
var FarFuture = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// Window returns a filter-independent sub-capture containing only the
// packet slices in [from, to), preserving flow metadata. It is used to
// analyze phases (login vs idle) separately.
//
// When no span record straddles a window boundary the view is
// zero-copy: it is located by binary search over the time-sorted trace
// and aliases the parent's backing store. Packets recorded after the
// view is taken do not appear in it; the view remains a valid snapshot
// either way. Spans that cross a boundary are expanded deterministically
// at exactly that boundary (Clip), so the sub-capture attributes every
// slice to the window it fell in, byte- and time-identical to a
// capture of the individual slice records. (The relative order of
// equal-instant records from independent connections is not defined —
// no analyzer depends on it.)
func (c *Capture) Window(from, to time.Time) *Capture {
	c.flush()
	lo := sort.Search(len(c.packets), func(i int) bool {
		return !c.packets[i].Time.Before(from)
	})
	hi := lo + sort.Search(len(c.packets)-lo, func(i int) bool {
		return !c.packets[lo+i].Time.Before(to)
	})
	if c.spans == 0 {
		// Span-free trace: pure binary-searched zero-copy view.
		return &Capture{packets: c.packets[lo:hi:hi], flows: c.flows}
	}
	// Spans starting before the window can still reach into it; spans
	// inside can reach past the upper bound. Both need clipping — but
	// the capture's span-timeline bounds prune each scan when no span
	// can straddle that side (the usual [t0, FarFuture) benchmark
	// window skips both).
	var pre []Packet
	if c.minSpanStart.Before(from) {
		for i := 0; i < lo; i++ {
			if p := &c.packets[i]; p.IsSpan() && !p.End().Before(from) {
				if cl, ok := p.Clip(from, to); ok {
					pre = append(pre, cl)
				}
			}
		}
	}
	clipHi := false
	if !c.maxSpanEnd.Before(to) {
		for i := lo; i < hi; i++ {
			if p := &c.packets[i]; p.IsSpan() && !p.End().Before(to) {
				clipHi = true
				break
			}
		}
	}
	if len(pre) == 0 && !clipHi {
		// Views inherit the parent's span accounting as conservative
		// bounds: only "no span could straddle" conclusions are drawn
		// from them, and those stay valid for any subset.
		return &Capture{packets: c.packets[lo:hi:hi], flows: c.flows,
			spans: c.spans, minSpanStart: c.minSpanStart, maxSpanEnd: c.maxSpanEnd}
	}
	out := make([]Packet, 0, len(pre)+(hi-lo))
	out = append(out, pre...)
	for i := lo; i < hi; i++ {
		p := c.packets[i]
		if p.IsSpan() && !p.End().Before(to) {
			if cl, ok := p.Clip(from, to); ok {
				out = append(out, cl)
			}
			continue
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Time.Before(out[j].Time)
	})
	sub := &Capture{packets: out, flows: c.flows}
	for i := range out {
		if p := &out[i]; p.IsSpan() {
			if sub.spans == 0 || p.Time.Before(sub.minSpanStart) {
				sub.minSpanStart = p.Time
			}
			if end := p.End(); sub.spans == 0 || end.After(sub.maxSpanEnd) {
				sub.maxSpanEnd = end
			}
			sub.spans++
		}
	}
	return sub
}
