// Package trace implements packet-trace capture and analysis for the
// benchmarking methodology.
//
// The paper's testing application never inspects the client under test;
// it only observes the traffic the client exchanges (tcpdump-style) and
// derives every metric — synchronization start-up, completion time,
// protocol overhead, TCP SYN counts, upload pauses, packet bursts —
// from the trace. This package is the equivalent information boundary
// in the reproduction: internal/tcpsim writes packets into a Sink,
// and internal/core reads only the trace.
//
// The Sink has two implementations. Streamer folds records into
// pre-registered window accumulators as they arrive and discards them,
// so a benchmark repetition's trace memory is O(flows) instead of
// O(packets); it is the trace of every testbed. Capture buffers every
// record for arbitrary re-windowing and per-packet analyzers (the
// tcpdump equivalent); a study that needs packets registers one on the
// Streamer as a recorder from the instant it reads from. Both analyze
// through one fold, the Streamer's window accumulator; see sink.go.
//
// The design borrows gopacket's vocabulary (packets, flows, endpoints)
// but stores segments in a compact aggregated form, at two levels.
// Consecutive data segments transmitted in the same congestion-window
// round share one record with a segment count. Long rate-limited
// transfers go further: the transport emits one span record standing
// for a whole run of uniform, evenly spaced transmission slices (see
// Span), so a multi-MB steady-state transfer is a single record
// instead of O(bytes/BDP) of them. Span records carry their exact
// slicing parameters, so every analyzer either folds them in O(1)
// (byte totals, payload brackets), clips them at a streamed window's
// bounds, or expands them deterministically back into the per-slice
// records (buffered windows, per-packet detectors) — bit-identical to
// recording the slices individually.
// Control packets (SYN, FIN, RST and TLS handshake records) are always
// individual, so connection counting and handshake analysis stay
// exact.
package trace

import (
	"fmt"
	"time"
)

// Transport-level wire constants, shared with the transport simulator
// (internal/tcpsim aliases them): the trace layer needs them to expand
// span records into their constituent slices. MSS assumes Ethernet
// without jumbo frames; the 66-byte overhead is Ethernet+IPv4+TCP with
// timestamps.
const (
	MSS           = 1460
	HeaderPerSeg  = 66
	ackEveryOther = 2 // delayed ACK: one pure ACK per two segments
)

// Segments returns how many MSS-sized packets n bytes occupy. Zero
// bytes travel in zero segments — a zero-byte record must not fake a
// data segment on the wire.
func Segments(n int64) int {
	if n <= 0 {
		return 0
	}
	return int((n + MSS - 1) / MSS)
}

// DelayedAckWire returns the wire bytes of the delayed ACKs elicited
// by a burst of segs segments.
func DelayedAckWire(segs int) int64 {
	acks := (segs + ackEveryOther - 1) / ackEveryOther
	return int64(acks) * HeaderPerSeg
}

// Direction tells which way a packet travels relative to the client
// under test.
type Direction int

const (
	// Upstream packets travel client -> server.
	Upstream Direction = iota
	// Downstream packets travel server -> client.
	Downstream
)

// String returns "up" or "down".
func (d Direction) String() string {
	if d == Upstream {
		return "up"
	}
	return "down"
}

// Proto is the transport protocol of a flow.
type Proto int

// TCP is the one transport the simulated clients use.
const TCP Proto = 0

// String returns "tcp", or the raw number of any other protocol.
func (p Proto) String() string {
	if p == TCP {
		return "tcp"
	}
	return fmt.Sprintf("proto(%d)", int(p))
}

// Flags models the TCP flag bits the analyzers care about.
type Flags struct {
	SYN bool
	ACK bool
	FIN bool
	RST bool
}

// FlowKey identifies one transport connection from the client under
// test to a server.
type FlowKey struct {
	ClientAddr string
	ClientPort int
	ServerAddr string
	ServerPort int
	Proto      Proto
}

// String formats the key in the usual 5-tuple notation.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d", k.Proto, k.ClientAddr, k.ClientPort, k.ServerAddr, k.ServerPort)
}

// FlowID indexes a flow inside one Capture.
type FlowID int

// Packet is one trace record. Payload is application-visible bytes
// carried (TLS ciphertext counts as payload at this layer); Wire is
// bytes on the wire including transport/network/link headers. Segments
// is how many real packets the record aggregates; for control packets
// it is 1.
type Packet struct {
	Time     time.Time
	Flow     FlowID
	Dir      Direction
	Flags    Flags
	Payload  int64
	Wire     int64
	Segments int

	// AckWire accounts the on-the-wire bytes of the pure-ACK packets
	// that this data record elicits in the opposite direction
	// (roughly one 66-byte ACK per two segments). Keeping them on the
	// data record avoids doubling the trace size while preserving
	// exact byte totals for the overhead metric.
	AckWire int64

	// Slices >= 2 marks a span record: the record stands for Slices
	// per-round data records ("slices") at Time, Time+SliceGap,
	// Time+2*SliceGap, ..., each carrying SliceBytes of payload except
	// the last, which carries Payload-(Slices-1)*SliceBytes. The
	// aggregate fields above (Payload, Wire, Segments, AckWire) hold
	// the totals over all slices; each slice's own wire/segment/ACK
	// accounting is fully determined by its payload (SliceAt), which
	// is what makes expansion deterministic and byte-exact. Slices
	// <= 1 is a plain record and SliceBytes/SliceGap are zero.
	Slices     int
	SliceBytes int64
	SliceGap   time.Duration
}

// HasPayload reports whether the record carries application bytes.
func (p Packet) HasPayload() bool { return p.Payload > 0 }

// IsSpan reports whether the record is a span standing for multiple
// per-round data records.
func (p Packet) IsSpan() bool { return p.Slices > 1 }

// SliceCount returns how many per-round trace records this record
// stands for: Slices for a span, 1 for a plain record.
func (p Packet) SliceCount() int {
	if p.Slices > 1 {
		return p.Slices
	}
	return 1
}

// End returns the instant of the record's last slice (Time itself for
// a plain record). A span occupies [Time, End] on the trace timeline.
func (p Packet) End() time.Time {
	if p.Slices <= 1 {
		return p.Time
	}
	return p.Time.Add(time.Duration(p.Slices-1) * p.SliceGap)
}

// lastSliceBytes returns the payload of a span's final slice.
func (p Packet) lastSliceBytes() int64 {
	return p.Payload - int64(p.Slices-1)*p.SliceBytes
}

// Span builds a span record over the given flow: `slices` uniform
// transmission slices starting at t and spaced gap apart, each
// carrying sliceBytes of payload except the last, which carries
// lastBytes (0 < lastBytes <= sliceBytes). The aggregate byte totals
// are derived slice by slice with the same per-record accounting the
// transport uses for individual data records, so expanding the span
// reproduces those records bit for bit.
func Span(t time.Time, flow FlowID, dir Direction, fl Flags, slices int, sliceBytes, lastBytes int64, gap time.Duration) Packet {
	if slices < 2 || sliceBytes <= 0 || lastBytes <= 0 || lastBytes > sliceBytes || gap < 0 {
		panic(fmt.Sprintf("trace: invalid span (slices=%d sliceBytes=%d lastBytes=%d gap=%v)",
			slices, sliceBytes, lastBytes, gap))
	}
	fullSegs := Segments(sliceBytes)
	lastSegs := Segments(lastBytes)
	full := int64(slices - 1)
	return Packet{
		Time: t, Flow: flow, Dir: dir, Flags: fl,
		Payload:  full*sliceBytes + lastBytes,
		Wire:     full*(sliceBytes+int64(fullSegs)*HeaderPerSeg) + lastBytes + int64(lastSegs)*HeaderPerSeg,
		Segments: (slices-1)*fullSegs + lastSegs,
		AckWire:  full*DelayedAckWire(fullSegs) + DelayedAckWire(lastSegs),
		Slices:   slices, SliceBytes: sliceBytes, SliceGap: gap,
	}
}

// SliceAt expands the i-th constituent slice of a span into the plain
// data record the transport would have emitted for that round. For a
// plain record it returns the record itself (only i == 0 exists).
func (p Packet) SliceAt(i int) Packet {
	if p.Slices <= 1 {
		if i != 0 {
			panic(fmt.Sprintf("trace: SliceAt(%d) on a plain record", i))
		}
		return p
	}
	if i < 0 || i >= p.Slices {
		panic(fmt.Sprintf("trace: SliceAt(%d) outside span of %d slices", i, p.Slices))
	}
	pay := p.SliceBytes
	if i == p.Slices-1 {
		pay = p.lastSliceBytes()
	}
	segs := Segments(pay)
	q := p
	q.Time = p.Time.Add(time.Duration(i) * p.SliceGap)
	q.Payload = pay
	q.Wire = pay + int64(segs)*HeaderPerSeg
	q.Segments = segs
	q.AckWire = DelayedAckWire(segs)
	q.Slices, q.SliceBytes, q.SliceGap = 0, 0, 0
	return q
}

// Clip returns the portion of the record whose slices fall inside the
// half-open window [from, to), and whether any do. Plain records are
// in or out as a whole. For spans the result keeps exact per-slice
// attribution: a fully contained span is returned unchanged (the O(1)
// fast path window accumulators rely on), a partially contained one
// becomes a shorter span (or a single plain record) over exactly the
// in-window slices, with totals recomputed from the slicing
// parameters.
func (p Packet) Clip(from, to time.Time) (Packet, bool) {
	if p.Slices <= 1 || p.SliceGap <= 0 {
		// Plain record — or a degenerate zero-gap span, whose slices
		// all share one instant and are in or out together.
		if p.Time.Before(from) || !p.Time.Before(to) {
			return Packet{}, false
		}
		return p, true
	}
	i0, i1 := 0, p.Slices
	if d := from.Sub(p.Time); d > 0 {
		// First slice index at or after `from`.
		i0 = int((d + p.SliceGap - 1) / p.SliceGap)
	}
	if e := to.Sub(p.Time); e <= 0 {
		i1 = 0
	} else if q := int((e + p.SliceGap - 1) / p.SliceGap); q < p.Slices {
		// First slice index at or after `to` (exclusive bound).
		i1 = q
	}
	if i0 >= i1 {
		return Packet{}, false
	}
	if i0 == 0 && i1 == p.Slices {
		return p, true
	}
	if i1-i0 == 1 {
		return p.SliceAt(i0), true
	}
	last := p.SliceBytes
	if i1 == p.Slices {
		last = p.lastSliceBytes()
	}
	return Span(p.Time.Add(time.Duration(i0)*p.SliceGap), p.Flow, p.Dir, p.Flags,
		i1-i0, p.SliceBytes, last, p.SliceGap), true
}

// appendSlices appends the record's constituent plain records to dst:
// the record itself when plain, every expanded slice when a span.
func (p Packet) appendSlices(dst []Packet) []Packet {
	if p.Slices <= 1 {
		return append(dst, p)
	}
	for i := 0; i < p.Slices; i++ {
		dst = append(dst, p.SliceAt(i))
	}
	return dst
}
