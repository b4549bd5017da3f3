// Package tcpsim provides a closed-form per-connection TCP/TLS model
// that emits packet records into a trace.Sink (a buffering Capture or
// a streaming Streamer).
//
// The model reproduces the transport mechanisms that dominate the
// paper's results:
//
//   - the 3-way handshake (1 RTT before the first byte),
//   - the TLS negotiation (2 further RTTs plus certificate bytes for a
//     full handshake — the cost that cripples services opening a fresh
//     TCP+SSL connection per file, Sect. 4.2/5.2),
//   - slow start (congestion window doubling each RTT from a 10-segment
//     initial window until the path rate is reached), which governs
//     short-transfer completion times (Fig. 6b),
//   - per-segment header and delayed-ACK overhead (Fig. 6c),
//   - application-layer waits (per-chunk commits, per-file
//     acknowledgments) that show up as upload pauses and bursts.
//
// # Transfer engine
//
// On a loss-free path a transfer is fully deterministic, so it is
// computed in closed form rather than simulated round by round. Slow
// start is a geometric cwnd schedule — the rounds, the per-round burst
// sizes and the phase duration follow directly from the doubling law,
// so the engine emits one aggregated record per round, O(log n) of
// them. Once the window reaches the path's bandwidth-delay product the
// sender transmits continuously at the path rate: the whole
// steady-state phase collapses into a single trace.Span record (the
// run of uniform BDP-sized slices, with its exact slicing parameters)
// and one formula for its duration — one Sink.Record call instead of
// O(bytes/BDP) of them. Every derived metric is bit-identical to
// recording the rounds one by one, because the span expands
// deterministically back into the per-round records (see trace.Span).
//
// Lossy paths (LossRate > 0) run the same closed-form engine: instead
// of drawing a Bernoulli verdict per congestion round, the engine
// inverse-transform samples the *position* of the next lost segment
// (one geometric draw per loss event, see loss.go), emits the clean
// run up to it with the closed-form schedule above, and replays the
// recovery epoch at that position — fast-retransmit record, extra
// RTT, Reno window halving. A lossy transfer therefore costs O(losses)
// instead of O(rounds).
//
// Dialer.InjectLossPositions pins the loss process to explicit segment
// positions, making lossy transfers deterministic. The golden tests in
// this package pin clean and scripted-loss transfers record for record
// (testdata/golden_transfers.json); the tests of loss.go pin the
// sampler against the per-round Bernoulli model.
//
// Connections keep their own virtual timeline; all emitted packets are
// timestamped on that timeline and merged in time order by the capture.
package tcpsim

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/trace"
)

// Transport-level constants. MSS and the 66-byte per-segment overhead
// (Ethernet+IPv4+TCP with timestamps) are the trace layer's wire
// vocabulary — spans expand with them — so they live in trace and are
// aliased here for the transport's own arithmetic and for existing
// callers.
const (
	MSS          = trace.MSS
	HeaderPerSeg = trace.HeaderPerSeg
	initCwndSegs = 10
)

// TLSConfig describes the TLS behaviour of a connection.
type TLSConfig struct {
	// Enabled selects HTTPS-style connections. Disabled models the
	// plain-HTTP flows the paper observed (Dropbox notifications,
	// some Wuala storage operations).
	Enabled bool
	// CertBytes is the server certificate chain size transferred
	// during a full handshake.
	CertBytes int64
	// RecordOverheadPct inflates application payload by this
	// percentage to account for TLS record framing and MAC.
	RecordOverheadPct float64
}

// DefaultTLS is the HTTPS profile used by all services in the paper.
var DefaultTLS = TLSConfig{Enabled: true, CertBytes: 3800, RecordOverheadPct: 2.0}

// PlainTCP disables TLS.
var PlainTCP = TLSConfig{}

// Client-side ephemeral ports: Dial hands out sequential ports from
// clientPortBase and wraps back after clientPortMax. The range is the
// flow-identity contract the trace analyzers rely on (a port below
// clientPortBase is never a simulated client).
const (
	clientPortBase = 40000
	clientPortMax  = 65535
)

// Dialer opens simulated connections from a fixed client host and
// records their packets into a trace sink — a buffering Capture or a
// fold-at-record-time Streamer; the transport model never reads the
// trace back, so it only needs the recording half.
type Dialer struct {
	Net    *netem.Network
	Sink   trace.Sink
	Client *netem.Host

	nextPort int

	// Loss-process state (see loss.go).
	// lossSeg is the coordinate: cumulative data segments offered to
	// the loss process. lossNext is the sampled absolute position of
	// the next loss (valid while lossNextOK and the rate still equals
	// lossNextP). lossScript/lossCur hold injected loss positions;
	// lossDraws counts RNG draws consumed by loss verdicts.
	lossSeg      int64
	lossNext     float64
	lossNextOK   bool
	lossNextP    float64
	lossDraws    int64
	lossScript   []int64
	lossCur      int
	lossScripted bool
}

// NewDialer returns a dialer for the given client host.
func NewDialer(n *netem.Network, sink trace.Sink, client *netem.Host) *Dialer {
	return &Dialer{Net: n, Sink: sink, Client: client, nextPort: clientPortBase}
}

// Conn is one simulated TCP (optionally TLS) connection.
type Conn struct {
	d          *Dialer
	flow       trace.FlowID
	server     *netem.Host
	serverName string
	tls        TLSConfig

	rtt     time.Duration // sampled at dial time, fixed for the connection
	rateBps int64         // path bottleneck rate

	established time.Time
	now         time.Time // connection-local timeline: when the conn is next free
	upCwnd      int64     // bytes, client->server congestion window
	downCwnd    int64     // bytes, server->client congestion window
	closed      bool
}

// Dial opens a connection to server at virtual instant `at`, performing
// the TCP handshake and, if configured, the TLS negotiation. The
// returned connection's timeline starts when the handshake completes.
// serverName is the DNS name the client resolved; it is stored on the
// flow record exactly as the paper's sniffer associates DNS names with
// flows.
func (d *Dialer) Dial(server *netem.Host, serverName string, at time.Time, tls TLSConfig) *Conn {
	port := d.nextPort
	d.nextPort++
	if d.nextPort > clientPortMax {
		// Ephemeral ports are 16-bit: wrap instead of growing into
		// invalid port numbers during long campaigns. Flow identity is
		// the FlowID, so key reuse never confuses the analyzers.
		d.nextPort = clientPortBase
	}
	key := trace.FlowKey{
		ClientAddr: d.Client.Addr, ClientPort: port,
		ServerAddr: server.Addr, ServerPort: 443, Proto: trace.TCP,
	}
	if !tls.Enabled {
		key.ServerPort = 80
	}
	flow := d.Sink.OpenFlow(key, serverName, at)
	c := &Conn{
		d: d, flow: flow, server: server, serverName: serverName, tls: tls,
		rtt:      d.Net.SampleRTT(d.Client, server),
		rateBps:  d.Net.PathRateBps(d.Client, server),
		upCwnd:   initCwndSegs * MSS,
		downCwnd: initCwndSegs * MSS,
	}

	// TCP 3-way handshake: SYN up, SYN-ACK down, ACK up (no payload).
	c.record(at, trace.Upstream, trace.Flags{SYN: true}, 0, 74, 1, 0)
	c.record(at.Add(c.rtt), trace.Downstream, trace.Flags{SYN: true, ACK: true}, 0, 74, 1, 0)
	c.record(at.Add(c.rtt), trace.Upstream, trace.Flags{ACK: true}, 0, 66, 1, 0)
	t := at.Add(c.rtt)

	if tls.Enabled {
		// Full TLS handshake, 2 RTTs: ClientHello / ServerHello+
		// Certificate / ClientKeyExchange+Finished / Finished.
		c.record(t, trace.Upstream, trace.Flags{ACK: true}, 220, 220+HeaderPerSeg, 1, 0)
		if tls.CertBytes > 0 {
			// A zero-byte chain (session resumption) transfers no
			// certificate record: no segments, no delayed ACKs.
			segs := segments(tls.CertBytes)
			c.record(t.Add(c.rtt), trace.Downstream, trace.Flags{ACK: true},
				tls.CertBytes, tls.CertBytes+int64(segs)*HeaderPerSeg, segs, ackWire(segs))
		}
		c.record(t.Add(c.rtt), trace.Upstream, trace.Flags{ACK: true}, 330, 330+HeaderPerSeg, 1, 0)
		c.record(t.Add(2*c.rtt), trace.Downstream, trace.Flags{ACK: true}, 60, 60+HeaderPerSeg, 1, 0)
		t = t.Add(2 * c.rtt)
	}

	c.established = t
	c.now = t
	return c
}

// RTT returns the connection's sampled round-trip time.
func (c *Conn) RTT() time.Duration { return c.rtt }

// EstablishedAt returns when the handshake (incl. TLS) completed.
func (c *Conn) EstablishedAt() time.Time { return c.established }

// FreeAt returns the connection-local current time: the earliest
// instant a new operation can start.
func (c *Conn) FreeAt() time.Time { return c.now }

// Server returns the host this connection talks to.
func (c *Conn) Server() *netem.Host { return c.server }

// ensureOpen panics when traffic is attempted on a connection that
// already completed its FIN exchange (Close) or was reset (Abort). A
// FIN'd flow silently carrying payload would corrupt every per-flow
// metric the analyzers derive, so a campaign bug here must fail loudly
// instead of polluting the trace.
func (c *Conn) ensureOpen(op string) {
	if c.closed {
		panic(fmt.Sprintf("tcpsim: %s on closed connection %s (flow %d)", op, c.serverName, c.flow))
	}
}

// Wait advances the connection timeline to at least t. It models
// application-level thinking time (e.g. a client waiting for a commit
// acknowledgment on another connection).
func (c *Conn) Wait(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// Idle advances the connection timeline by d from its current instant.
func (c *Conn) Idle(d time.Duration) { c.now = c.now.Add(d) }

// Send transmits n application bytes upstream starting no earlier than
// the connection's current instant. It returns the instant the last
// byte leaves the client (lastSent) and the instant the server has
// received and processed all of it (serverDone, which includes rtt/2
// propagation and the server's processing delay). The connection
// timeline advances to lastSent; callers that need the server response
// use serverDone (see RequestResponse).
func (c *Conn) Send(n int64) (lastSent, serverDone time.Time) {
	c.ensureOpen("Send")
	last := c.transfer(trace.Upstream, n)
	c.now = last
	return last, last.Add(c.rtt / 2).Add(c.server.ProcDelay)
}

// Recv makes the server transmit n application bytes downstream,
// starting after serverStart (in server-local terms the request arrival
// plus processing). It returns when the client has received everything,
// and advances the connection timeline to that instant.
func (c *Conn) Recv(serverStart time.Time, n int64) (clientDone time.Time) {
	c.ensureOpen("Recv")
	c.Wait(serverStart)
	last := c.transfer(trace.Downstream, n)
	done := last.Add(c.rtt / 2)
	c.now = done
	return done
}

// RequestResponse models one application request/response exchange:
// send reqBytes up, server processes, server sends respBytes down.
// It returns when the client holds the full response.
func (c *Conn) RequestResponse(reqBytes, respBytes int64) time.Time {
	_, serverDone := c.Send(reqBytes)
	return c.Recv(serverDone, respBytes)
}

// Close performs the FIN exchange and returns when it completes. The
// trace records it, but the paper's metrics explicitly ignore
// tear-down time.
func (c *Conn) Close() time.Time {
	if c.closed {
		return c.now
	}
	c.closed = true
	c.record(c.now, trace.Upstream, trace.Flags{FIN: true, ACK: true}, 0, 66, 1, 0)
	c.record(c.now.Add(c.rtt), trace.Downstream, trace.Flags{FIN: true, ACK: true}, 0, 66, 1, 0)
	c.now = c.now.Add(c.rtt)
	return c.now
}

// wireBytes applies the TLS record framing inflation to n application
// bytes: what TCP actually carries.
func (c *Conn) wireBytes(n int64) int64 {
	if c.tls.Enabled && c.tls.RecordOverheadPct > 0 {
		return n + int64(float64(n)*c.tls.RecordOverheadPct/100)
	}
	return n
}

// bdpBytes returns the path's bandwidth-delay product: once cwnd
// reaches it, the sender is rate-limited and transmits continuously.
// Zero means the path is uncapped.
func (c *Conn) bdpBytes() int64 {
	if c.rateBps <= 0 {
		return 0
	}
	bdp := int64(float64(c.rateBps) / 8 * c.rtt.Seconds())
	if bdp < MSS {
		bdp = MSS
	}
	return bdp
}

// serTime is the serialization delay of n bytes at the path rate.
func (c *Conn) serTime(n int64) time.Duration {
	return time.Duration(float64(n*8) / float64(c.rateBps) * float64(time.Second))
}

// transfer moves n application bytes in one direction with slow start
// and a path-rate cap, emitting aggregated packet records. It returns
// the instant the last byte is put on the wire by the sender; for
// upstream that is client time, for downstream server time (callers
// add rtt/2 for delivery). It is the closed-form engine, clean and
// lossy paths alike.
//
// Slow start is a geometric schedule: bursts of cwnd, 2·cwnd, 4·cwnd,
// ... bytes, one ACK-clocked round apart, until the window reaches the
// path BDP (after at most ⌈log2(bdp/cwnd)⌉ doublings) or the transfer
// ends. The round count and byte coverage follow from the geometric
// sum cwnd·(2^r − 1); the engine emits the r per-round records this
// schedule prescribes without simulating the ACK clock.
//
// The steady state transmits continuously at rateBps in BDP-sized
// slices: k = ⌈remaining/bdp⌉ slices, k−1 full plus a final partial
// one, each taking its serialization time. The clean run up to the
// next sampled loss position is one trace.Span record and one
// duration formula,
//
//	(j−1)·ser(bdp) + ser(last),
//
// which equals accumulating the slices one by one exactly (iterated
// addition of a constant Duration is exact integer math).
//
// Loss costs O(losses), not O(rounds): the next loss position comes
// from one geometric draw (see loss.go), the clean run up to it is
// emitted in closed form, and the recovery epoch at the sampled
// position — serialization of the lossy slice, one extra RTT, the
// fast-retransmit record, Reno window halving — is the same one a
// lossy slow-start round pays. Slow-start rounds are already O(log n),
// so they take their verdicts round by round.
func (c *Conn) transfer(dir trace.Direction, n int64) time.Time {
	if n < 0 {
		panic(fmt.Sprintf("tcpsim: negative transfer %d", n))
	}
	if n == 0 {
		return c.now
	}
	cwnd := c.upCwnd
	if dir == trace.Downstream {
		cwnd = c.downCwnd
	}
	bdp := c.bdpBytes()
	lossy := c.d.lossActive()

	t := c.now
	remaining := c.wireBytes(n)

	for remaining > 0 {
		if bdp == 0 || cwnd < bdp {
			// Slow-start round: one doubling burst per ACK clock.
			burst := cwnd
			if burst > remaining {
				burst = remaining
			}
			c.emitData(t, dir, burst)
			remaining -= burst
			if remaining > 0 {
				// Wait for the ACK clock before the next round.
				round := c.rtt
				if c.rateBps > 0 {
					if ser := c.serTime(burst); ser > round {
						round = ser
					}
				}
				t = t.Add(round)
			} else if c.rateBps > 0 {
				// Last burst: the final byte leaves after its own
				// serialization time.
				t = t.Add(c.serTime(burst))
			}
			if lossy && c.d.roundLossy(int64(segments(burst))) {
				t = t.Add(c.rtt)
				c.emitRetransmit(t, dir)
				cwnd /= 2
				if cwnd < 2*MSS {
					cwnd = 2 * MSS
				}
			} else {
				cwnd *= 2
			}
			if bdp > 0 && cwnd > bdp {
				cwnd = bdp
			}
			continue
		}

		// Steady state: continuous transmission at the path rate in
		// BDP-sized slices, k−1 full plus a final partial one.
		k := (remaining + bdp - 1) / bdp
		last := remaining - (k-1)*bdp
		segsFull := int64(segments(bdp))
		phaseSegs := (k-1)*segsFull + int64(segments(last))
		serFull := c.serTime(bdp)

		// Index of the first lossy slice; k means the whole phase is
		// clean. All slices before the sampled position carry segsFull
		// segments, so the index is a division away.
		j := k
		if lossy {
			if next := c.d.nextLossPos(); next < float64(c.d.lossSeg)+float64(phaseSegs) {
				j = (int64(next) - c.d.lossSeg) / segsFull
				if j > k-1 {
					j = k - 1 // the loss sits in the final partial slice
				}
			}
		}

		if j == k {
			// Clean to the end of the transfer: one span for the whole
			// run of slices.
			if k == 1 {
				c.emitData(t, dir, last)
			} else {
				c.d.Sink.Record(trace.Span(t, c.flow, dir, trace.Flags{ACK: true},
					int(k), bdp, last, serFull))
			}
			t = t.Add(time.Duration(k-1) * serFull).Add(c.serTime(last))
			if lossy {
				c.d.lossAdvance(phaseSegs)
			}
			remaining = 0
			break
		}

		// j clean full slices, then the lossy slice and its recovery.
		if j > 0 {
			if j == 1 {
				c.emitData(t, dir, bdp)
			} else {
				c.d.Sink.Record(trace.Span(t, c.flow, dir, trace.Flags{ACK: true},
					int(j), bdp, bdp, serFull))
			}
			t = t.Add(time.Duration(j) * serFull)
			remaining -= j * bdp
			c.d.lossAdvance(j * segsFull)
		}
		slice := bdp
		if slice > remaining {
			slice = remaining
		}
		c.emitData(t, dir, slice)
		t = t.Add(c.serTime(slice))
		remaining -= slice
		c.d.lossAdvance(int64(segments(slice)))
		c.d.lossRecovered()
		// Fast retransmit: one extra RTT, window halves, the lost
		// segment travels again.
		t = t.Add(c.rtt)
		c.emitRetransmit(t, dir)
		cwnd /= 2
		if cwnd < 2*MSS {
			cwnd = 2 * MSS
		}
	}

	if dir == trace.Upstream {
		c.upCwnd = cwnd
	} else {
		c.downCwnd = cwnd
	}
	return t
}

// emitRetransmit records one retransmitted segment: wire bytes with
// no new application payload, so loss inflates overhead but never
// byte conservation.
func (c *Conn) emitRetransmit(t time.Time, dir trace.Direction) {
	c.record(t, dir, trace.Flags{ACK: true}, 0, MSS+HeaderPerSeg, 1, HeaderPerSeg)
}

// emitData records one aggregated data record of n application bytes.
func (c *Conn) emitData(t time.Time, dir trace.Direction, n int64) {
	segs := segments(n)
	c.record(t, dir, trace.Flags{ACK: true}, n, n+int64(segs)*HeaderPerSeg, segs, ackWire(segs))
}

func (c *Conn) record(t time.Time, dir trace.Direction, fl trace.Flags, payload, wire int64, segs int, ack int64) {
	c.d.Sink.Record(trace.Packet{
		Time: t, Flow: c.flow, Dir: dir, Flags: fl,
		Payload: payload, Wire: wire, Segments: segs, AckWire: ack,
	})
}

// segments returns how many MSS-sized packets n bytes occupy. The
// arithmetic lives in trace (span expansion uses it); this is the
// transport's local name for it.
func segments(n int64) int { return trace.Segments(n) }

// ackWire returns the wire bytes of the delayed ACKs elicited by a
// burst of segs segments.
func ackWire(segs int) int64 { return trace.DelayedAckWire(segs) }
