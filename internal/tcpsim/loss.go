package tcpsim

import (
	"math"
	"sort"
)

// This file implements the transfer engine's loss process.
//
// The model is per-round Bernoulli: a congestion round of s segments
// is lossy with probability 1 − (1−p)^s. The engine realises it by
// inverse-transform sampling the *position* of the next lossy
// segment: the number of clean segments before the next loss is
// geometric, P(gap ≥ k) = (1−p)^k, so one draw places the next loss
// and every round wholly before that position is clean with the
// correct joint probability. After a lossy round the process is
// memoryless, so the sampler simply redraws from the round's end. One
// RNG draw per loss event instead of one per round is what makes a
// lossy transfer cost O(losses).
//
// Rounds are expressed in one coordinate system: lossSeg counts the
// data segments offered to the loss process so far (per dialer, across
// connections and transfers, in transfer order). That seam is also
// injectable: InjectLossPositions pins the process to an explicit
// list of absolute segment positions, under which every transfer is
// deterministic — the inputs the golden transfer tests replay.

// lossGap returns the sampled number of clean segments before the
// next lost one, given a uniform draw u in [0,1): the inverse
// transform floor(ln(u)/ln(1−p)) of the geometric distribution.
// Edges: p ≥ 1 loses the very next segment; u = 0 (a measure-zero
// draw) and underflowed ratios push the loss beyond any finite
// transfer instead of producing NaN.
func lossGap(u, p float64) float64 {
	if p >= 1 {
		return 0
	}
	if u <= 0 {
		return math.Inf(1)
	}
	g := math.Floor(math.Log(u) / math.Log1p(-p))
	if math.IsNaN(g) {
		return math.Inf(1)
	}
	return g
}

// InjectLossPositions pins the dialer's loss process to an explicit
// script: the absolute positions (0-based indices into the cumulative
// data-segment sequence this dialer offers to the loss process) of
// every lost segment. A congestion round is lossy iff it covers a
// scripted position; the network RNG is never consulted. Positions
// already behind the process are dropped. The golden transfer tests
// and the transfer fuzzer drive this seam.
func (d *Dialer) InjectLossPositions(positions []int64) {
	d.lossScript = append([]int64(nil), positions...)
	sort.Slice(d.lossScript, func(i, j int) bool { return d.lossScript[i] < d.lossScript[j] })
	d.lossCur = 0
	for d.lossCur < len(d.lossScript) && d.lossScript[d.lossCur] < d.lossSeg {
		d.lossCur++
	}
	d.lossScripted = true
	d.lossNextOK = false
}

// LossDraws reports how many RNG draws the dialer's loss process has
// consumed: one per loss event, plus at most one pending sample. The
// draw-bound tests read it.
func (d *Dialer) LossDraws() int64 { return d.lossDraws }

// lossActive reports whether transfer rounds must be offered to the
// loss process at all. When false the transfer engine skips loss
// accounting entirely and takes the loss-free fast path.
func (d *Dialer) lossActive() bool { return d.lossScripted || d.Net.LossRate > 0 }

// nextLossPos returns the absolute segment position of the next loss,
// +Inf when none is scheduled. In RNG mode the position is sampled
// lazily — one geometric draw — and stays pinned until a lossy round
// consumes it (or the loss rate changes), which is what makes clean
// rounds free of RNG traffic.
func (d *Dialer) nextLossPos() float64 {
	if d.lossScripted {
		if d.lossCur < len(d.lossScript) {
			return float64(d.lossScript[d.lossCur])
		}
		return math.Inf(1)
	}
	p := d.Net.LossRate
	if p <= 0 {
		return math.Inf(1)
	}
	if !d.lossNextOK || d.lossNextP != p {
		d.lossDraws++
		d.lossNext = float64(d.lossSeg) + lossGap(d.Net.RNG().Float64(), p)
		d.lossNextOK = true
		d.lossNextP = p
	}
	return d.lossNext
}

// lossAdvance moves the loss coordinate past segs clean segments.
func (d *Dialer) lossAdvance(segs int64) { d.lossSeg += segs }

// lossRecovered consumes the loss event(s) inside the round that just
// ended at the current coordinate: scripted positions behind the
// round's end are spent, and the RNG sampler restarts (memorylessly)
// from the next round.
func (d *Dialer) lossRecovered() {
	if d.lossScripted {
		for d.lossCur < len(d.lossScript) && d.lossScript[d.lossCur] < d.lossSeg {
			d.lossCur++
		}
		return
	}
	d.lossNextOK = false
}

// roundLossy offers one congestion round of segs data segments to the
// loss process and reports the verdict, driven by the sampled position
// instead of a fresh draw per round.
func (d *Dialer) roundLossy(segs int64) bool {
	next := d.nextLossPos()
	d.lossSeg += segs
	if next >= float64(d.lossSeg) {
		return false
	}
	d.lossRecovered()
	return true
}
