package tcpsim

import (
	"time"

	"repro/internal/trace"
)

// This file adds transfer interruption to the connection model,
// needed by the Sect. 4.1 recovery study: "Chunking is advantageous
// because it simplifies upload recovery in case of failures: partial
// submission becomes easier to be implemented."

// SendUntil transmits up to n application bytes upstream but stops
// putting data on the wire at the deadline (a mid-transfer failure:
// the path went away, the connection was reset). It returns the bytes
// actually transmitted, whether the transfer was cut, and the instant
// transmission stopped. A cut connection is left positioned at the
// cut instant; callers then Abort it and retry on a fresh connection.
func (c *Conn) SendUntil(n int64, deadline time.Time) (sent int64, cut bool, last time.Time) {
	c.ensureOpen("SendUntil")
	if n <= 0 {
		return 0, false, c.now
	}
	wireApp := c.wireBytes(n)
	bdp := c.bdpBytes()

	t := c.now
	remaining := wireApp
	cwnd := c.upCwnd
	for remaining > 0 {
		if !t.Before(deadline) {
			cut = true
			break
		}
		burst := cwnd
		if bdp > 0 && burst > bdp {
			burst = bdp
		}
		if burst > remaining {
			burst = remaining
		}
		c.emitData(t, trace.Upstream, burst)
		sent += burst
		remaining -= burst

		var step time.Duration
		if c.rateBps > 0 {
			step = c.serTime(burst)
		}
		if remaining > 0 && (bdp == 0 || cwnd < bdp) && c.rtt > step {
			step = c.rtt // ack-clocked slow-start round
		}
		t = t.Add(step)
		cwnd *= 2
		if bdp > 0 && cwnd > bdp {
			cwnd = bdp
		}
	}
	c.upCwnd = cwnd
	c.now = t
	return sent, cut, t
}

// Abort tears the connection down with a reset instead of the orderly
// FIN exchange — what a client sees when its transfer dies.
func (c *Conn) Abort() time.Time {
	if c.closed {
		return c.now
	}
	c.closed = true
	c.record(c.now, trace.Upstream, trace.Flags{RST: true}, 0, 66, 1, 0)
	return c.now
}
