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
//                                   and chunk-size inference (Sect. 4.1)
//   - cumulative byte timeline   -> idle/background traffic (Fig. 1)
//
// The scalar metrics all come from one fold, StreamWindow's per-flow
// accumulator (sink.go): a Streamer runs it at record time, and
// Capture.Analyze replays the buffered records through it. A caller
// reads every Sect. 5 number off the one Analysis it needs; there are
// no per-metric methods. The per-packet detectors below walk the
// span-expanded trace instead.

// Analysis is every scalar trace metric over one flow selection,
// computed in a single fold by Analyze.
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

// Analyze computes every scalar metric over the selected flows. It
// folds the capture's time-sorted records through one unbounded
// StreamWindow, so a buffered trace and a streamed one share a single
// Sect. 5 analysis.
func (c *Capture) Analyze(f FlowFilter) Analysis { return c.fold().Analyze(f) }

// FlowBytes returns total wire bytes per flow, indexed by FlowID. The
// paper uses per-flow sizes to tell Wuala's storage flows from its
// control flows, since Wuala does not split them by server name.
func (c *Capture) FlowBytes() []int64 { return c.fold().FlowBytes() }

// fold replays the capture's records, in time order, into a fresh
// Streamer whose one window [time.Time{}, FarFuture) holds every
// instant a simulation produces and every one ReadCSV accepts.
func (c *Capture) fold() *StreamWindow {
	c.flush()
	s := NewStreamer()
	for _, fl := range c.flows {
		s.OpenFlow(fl.Key, fl.ServerName, fl.OpenedAt)
	}
	w := s.AddWindow(time.Time{}, FarFuture)
	for i := range c.packets {
		s.Record(c.packets[i])
	}
	return w
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
// application-layer acknowledgment between files (SkyDrive, Wuala),
// and reads chunk sizes off them: a client that splits a large file
// into chunks pauses between chunk submissions while it waits for the
// per-chunk acknowledgment, so every burst but the last is one chunk.
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

// FarFuture is an instant beyond any simulated timeline, usable as an
// open upper bound for Window.
var FarFuture = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// Window returns the sub-capture of the per-round records whose
// instants fall in [from, to), preserving flow metadata. It is used to
// analyze phases (login vs idle) separately. The cut is taken over
// ExpandedPackets, so a span contributes exactly its in-window slices
// and the view itself is span-free. On a span-free trace the view is
// zero-copy: it is located by binary search and aliases the parent's
// backing store. Records added after the view is taken never appear
// in it.
func (c *Capture) Window(from, to time.Time) *Capture {
	pkts := c.ExpandedPackets()
	lo := sort.Search(len(pkts), func(i int) bool {
		return !pkts[i].Time.Before(from)
	})
	hi := lo + sort.Search(len(pkts)-lo, func(i int) bool {
		return !pkts[lo+i].Time.Before(to)
	})
	return &Capture{packets: pkts[lo:hi:hi], flows: c.flows}
}
