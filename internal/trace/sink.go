package trace

import (
	"fmt"
	"slices"
	"time"
)

// Sink is the recording half of a trace: the interface the transport
// simulator (tcpsim, and everything stacked on it) writes against.
// Two implementations exist:
//
//   - Capture buffers every packet record and supports arbitrary
//     re-windowing and per-packet analyzers afterwards — the tcpdump
//     equivalent, O(packets) memory.
//   - Streamer folds packets into pre-registered window accumulators
//     at record time and then discards them — the "compute the
//     counters in the kernel" equivalent, O(flows) memory.
//
// The scalar analysis has one implementation, StreamWindow's fold:
// Capture.Analyze replays its time-sorted records through a Streamer
// with one unbounded window. Connections simulate on independent
// timelines, so records may arrive slightly out of order; every
// result is defined over the stably time-sorted trace. Capture
// re-establishes that order with its reorder buffer, and the fold is
// order-independent except for the SYN timeline, which
// StreamWindow.Analyze re-establishes the same way at read time.
type Sink interface {
	// OpenFlow registers a new connection and returns its ID.
	OpenFlow(key FlowKey, serverName string, at time.Time) FlowID
	// Record adds a packet to the trace.
	Record(p Packet)
}

var (
	_ Sink = (*Capture)(nil)
	_ Sink = (*Streamer)(nil)
)

// Streamer is a packet sink that never buffers packets: each Record
// folds the packet into the accumulators of every registered window
// that contains its timestamp, then drops it. Memory is
// O(flows + windows), independent of trace length — the property that
// lets campaign size scale with repetitions instead of packets
// (production-scale runs of the Sect. 5 benchmarks never re-read the
// trace, they only need the per-window Analysis).
//
// Its contract:
//
//   - StreamWindow.Analyze(f) equals Capture.Window(from, to).Analyze(f)
//     over the same records, including the SYNTimes order (stable time
//     order, the discipline Capture.flush applies) and the
//     HasPayload/FirstPayload/LastPayload bracket: a span straddling a
//     window bound folds exactly the slices the cut keeps.
//   - Filters are applied at read time, against FlowInfo, so
//     classifiers that need per-flow traffic totals (the Wuala
//     flow-size heuristic) work from StreamWindow.FlowBytes.
//
// Windows must be registered before any packet whose timestamp falls
// inside them is recorded; AddWindow enforces this, which is what
// makes a fold over a discarded trace equal to the same fold over a
// buffered one. Like Capture, a Streamer is not safe for concurrent
// use — the campaign engine gives every experiment cell its own sink.
type Streamer struct {
	flows chunked[FlowInfo]
	wins  []*StreamWindow

	// origin is the instant of the first recorded packet; seen is set
	// from then on. Every instant the streamer keeps afterwards is an
	// offset from origin (see offset): window bounds, accumulators and
	// maxSeen are integers, so the per-record fold compares and stores
	// plain numbers, and the accumulators are pointer-free (no write
	// barriers, nothing for the GC to scan).
	origin time.Time
	seen   bool

	// maxSeen is the offset of the latest instant recorded so far —
	// for span records the instant of their last slice, since the
	// whole span is discarded at record time; AddWindow uses it to
	// reject registrations that would miss already-discarded packets.
	maxSeen time.Duration
}

// NewStreamer returns a streamer with no flows and no windows.
func NewStreamer() *Streamer { return &Streamer{} }

// OpenFlow registers a new connection and returns its ID.
func (s *Streamer) OpenFlow(key FlowKey, serverName string, at time.Time) FlowID {
	id := FlowID(s.flows.len())
	s.flows.grow(int(id) + 1)
	*s.flows.at(int(id)) = FlowInfo{ID: id, Key: key, ServerName: serverName, OpenedAt: at}
	return id
}

// offset returns t.Sub(s.origin). Within 2^33 s (~272 years) of the
// origin it subtracts the wall-clock seconds and nanoseconds directly,
// which inlines, instead of calling Sub with its overflow check; the
// result is the same for the instants a simulation produces, which
// carry no monotonic clock reading. Beyond that it falls back to Sub,
// which saturates. Offsets are exact, and compare as the instants do,
// for any trace whose instants lie within ±292 years of its first.
func (s *Streamer) offset(t time.Time) time.Duration {
	ds := t.Unix() - s.origin.Unix()
	if ds > 1<<33 || ds < -1<<33 {
		return t.Sub(s.origin)
	}
	return time.Duration(ds)*time.Second + time.Duration(t.Nanosecond()-s.origin.Nanosecond())
}

// Record folds a packet into every registered window containing its
// timestamp and discards it. O(windows) per packet, no retention.
// Span records fold in O(1) per window: totals when fully contained,
// a deterministic O(1) clip at window boundaries otherwise.
func (s *Streamer) Record(p Packet) {
	first := !s.seen
	if first {
		s.origin, s.seen = p.Time, true
		for _, w := range s.wins {
			w.anchor()
		}
	}
	at := s.offset(p.Time)
	end := at
	if p.Slices > 1 {
		end += time.Duration(p.Slices-1) * p.SliceGap // p.End()
	}
	if first || end > s.maxSeen {
		s.maxSeen = end
	}
	for _, w := range s.wins {
		w.record(&p, at)
	}
}

// AddWindow registers a half-open accumulation window [from, to),
// matching Capture.Window semantics. It panics when a packet at or
// after `from` has already been recorded: that packet is gone, so the
// window could silently diverge from a buffered capture of the same
// run. Callers register windows at quiet instants (the benchmark
// engine does so right when the window opens, after the trace has
// settled).
func (s *Streamer) AddWindow(from, to time.Time) *StreamWindow {
	w := &StreamWindow{s: s, from: from, to: to}
	if s.seen {
		w.anchor()
		if w.lo <= s.maxSeen {
			panic(fmt.Sprintf(
				"trace: AddWindow(from=%v) after recording a packet at %v; streaming windows must be registered before their traffic",
				from, s.origin.Add(s.maxSeen)))
		}
	}
	s.wins = append(s.wins, w)
	return w
}

// Flows returns metadata for every connection seen by the streamer.
func (s *Streamer) Flows() []FlowInfo { return s.flows.slice() }

// Flow returns the metadata for one connection.
func (s *Streamer) Flow(id FlowID) FlowInfo { return *s.flows.at(int(id)) }

// NumFlows returns how many connections the streamer saw.
func (s *Streamer) NumFlows() int { return s.flows.len() }

// flowAcc is the per-(window, flow) fold of every commutative Analysis
// metric. 72 pointer-free bytes per flow per window — together with
// the per-connection SYN events, the whole memory footprint of a
// streamed repetition. Instants are offsets from the streamer's
// origin.
type flowAcc struct {
	packets                int
	totalWire              int64
	wireUp, wireDown       int64
	payloadUp, payloadDown int64

	firstPayload, lastPayload time.Duration
	hasPayload                bool
}

// synEvent is one client-initiated SYN, kept in arrival order. SYN
// timelines are the only order-sensitive Analysis output, and there is
// one per connection, so retaining them stays O(flows). at is an
// offset from the streamer's origin.
type synEvent struct {
	at   time.Duration
	flow FlowID
}

// StreamWindow accumulates one [from, to) time slice of the stream.
// It answers Analyze and FlowBytes without keeping the records; its
// fold is the one Sect. 5 analysis, which Capture runs too.
type StreamWindow struct {
	s        *Streamer
	from, to time.Time
	lo, hi   time.Duration // from and to as offsets, once the origin is known
	perFlow  chunked[flowAcc]
	syns     []synEvent
}

// From returns the window's inclusive lower bound.
func (w *StreamWindow) From() time.Time { return w.from }

// anchor converts the window's bounds to offsets from the streamer's
// origin. Sub saturates, so a bound beyond an offset's range (the zero
// Time, say) still compares correctly against every record offset.
func (w *StreamWindow) anchor() {
	w.lo, w.hi = w.from.Sub(w.s.origin), w.to.Sub(w.s.origin)
}

// record folds one packet at offset at into its flow's accumulator,
// so filters can be applied at read time. A plain record is in or out of the window as a whole
// and folds in place. A span is first clipped to the window (O(1):
// index arithmetic over the uniform slicing), so a span straddling a
// boundary contributes exactly its in-window slices, and a fully
// contained one folds its precomputed totals without expansion.
func (w *StreamWindow) record(p *Packet, at time.Duration) {
	if p.Slices > 1 && p.SliceGap > 0 {
		if cl, ok := p.Clip(w.from, w.to); ok {
			w.fold(&cl, w.s.offset(cl.Time))
		}
		return
	}
	// Clip's plain-record case (a zero-gap span's slices share one
	// instant, so it too is in or out whole), without the copy.
	if at < w.lo || at >= w.hi {
		return
	}
	w.fold(p, at)
}

// fold adds one in-window record at offset at to its flow's
// accumulator.
func (w *StreamWindow) fold(p *Packet, at time.Duration) {
	w.perFlow.grow(int(p.Flow) + 1)
	a := w.perFlow.at(int(p.Flow))
	last := at // the instant of the record's last slice, p.End()
	if p.Slices > 1 {
		a.packets += p.Slices
		last += time.Duration(p.Slices-1) * p.SliceGap
	} else {
		a.packets++
	}
	a.totalWire += p.Wire + p.AckWire
	if p.Dir == Upstream {
		a.wireUp += p.Wire
		a.wireDown += p.AckWire
		a.payloadUp += p.Payload
		if p.Flags.SYN && !p.Flags.ACK {
			w.syns = append(w.syns, synEvent{at: at, flow: p.Flow})
		}
	} else {
		a.wireDown += p.Wire
		a.wireUp += p.AckWire
		a.payloadDown += p.Payload
	}
	if p.Payload > 0 {
		// Every slice of a data span carries payload, so the span's
		// in-window payload bracket is [p.Time, p.End()].
		if !a.hasPayload {
			a.firstPayload = at
			a.lastPayload = last
			a.hasPayload = true
		} else {
			// Records arrive slightly out of order, so the payload
			// bracket is a min/max fold; over the stably sorted trace
			// these are exactly the first and last payload instants.
			a.firstPayload = min(a.firstPayload, at)
			a.lastPayload = max(a.lastPayload, last)
		}
	}
}

// Analyze merges the per-flow accumulators of the selected flows into
// one Analysis. The SYN timeline is re-established in stable time
// order — the same discipline Capture's reorder buffer applies to the
// whole trace before analyzers read it: sort by timestamp, equal
// timestamps keep arrival order.
func (w *StreamWindow) Analyze(f FlowFilter) Analysis {
	var a Analysis
	var first, last time.Duration
	for id := range w.perFlow.len() {
		if f != nil && !f(*w.s.flows.at(id)) {
			continue
		}
		acc := w.perFlow.at(id)
		a.Packets += acc.packets
		a.TotalWire += acc.totalWire
		a.WireUp += acc.wireUp
		a.WireDown += acc.wireDown
		a.PayloadUp += acc.payloadUp
		a.PayloadDown += acc.payloadDown
		if acc.hasPayload {
			if !a.HasPayload {
				first, last = acc.firstPayload, acc.lastPayload
				a.HasPayload = true
			} else {
				first = min(first, acc.firstPayload)
				last = max(last, acc.lastPayload)
			}
		}
	}
	if a.HasPayload {
		a.FirstPayload = w.s.origin.Add(first)
		a.LastPayload = w.s.origin.Add(last)
	}
	for _, e := range w.syns {
		if f == nil || f(*w.s.flows.at(int(e.flow))) {
			if a.SYNTimes == nil {
				a.SYNTimes = make([]time.Time, 0, len(w.syns))
			}
			a.SYNTimes = append(a.SYNTimes, w.s.origin.Add(e.at))
		}
	}
	slices.SortStableFunc(a.SYNTimes, time.Time.Compare)
	a.Connections = len(a.SYNTimes)
	return a
}

// FlowBytes returns total wire bytes per flow within the window,
// indexed by FlowID — the Wuala storage/control classifier input.
func (w *StreamWindow) FlowBytes() []int64 {
	out := make([]int64, w.s.flows.len())
	for id := range w.perFlow.len() {
		out[id] = w.perFlow.at(id).totalWire
	}
	return out
}
