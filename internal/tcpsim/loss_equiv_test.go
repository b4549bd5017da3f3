package tcpsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the loss process:
//
//  1. The model: the sampled loss positions realise the per-round
//     Bernoulli process — a round of s segments is lossy with
//     probability 1−(1−p)^s — and the sampled gaps are geometric.
//  2. The transfer-level consequences of the sampler: scripted losses
//     in the final burst and across transfers, vanishing loss, and the
//     one-draw-per-loss-event bound.
//
// Plus the geometric sampler's edges: p→0, p=1, losses scripted past
// the end of the transfer, and float underflow in the log inversion.
// Record-level outcomes of clean, scripted and certain-loss transfers
// are pinned by the golden transfer tests (golden_test.go).

// lossScriptFor generates one injected-loss script: a mix of sparse
// positions, bursts of consecutive positions (several losses inside
// one round — a single recovery), duplicates, position zero and
// positions far beyond the transfer.
func lossScriptFor(rng *rand.Rand) []int64 {
	var script []int64
	if rng.Intn(6) == 0 {
		return script // no losses at all
	}
	if rng.Intn(3) == 0 {
		script = append(script, 0) // lose the very first segment
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		pos := int64(rng.Intn(20000))
		script = append(script, pos)
		switch rng.Intn(4) {
		case 0: // cluster: consecutive segments of one round
			script = append(script, pos+1, pos+2)
		case 1: // duplicate
			script = append(script, pos)
		}
	}
	if rng.Intn(2) == 0 {
		script = append(script, int64(1<<40)) // far beyond any transfer
	}
	return script
}

// countRetransmitRecords counts fast-retransmit records in a capture:
// single payload-free data-sized segments that are neither handshake
// nor teardown.
func countRetransmitRecords(cap *trace.Capture) int64 {
	var n int64
	for _, p := range cap.ExpandedPackets() {
		if p.Payload == 0 && p.Segments == 1 && p.Wire == MSS+HeaderPerSeg &&
			!p.Flags.SYN && !p.Flags.FIN && !p.Flags.RST {
			n++
		}
	}
	return n
}

// TestLossyDistributionalEquivalence pins the sampled loss process
// to the per-round Bernoulli model it realises. Over many rounds of s
// segments at loss rate p, the fraction of lossy rounds must lie
// within 5σ of 1−(1−p)^s: after a clean round the pinned position is
// memoryless, after a lossy one the sampler redraws, so rounds are
// independent. The sampled gaps themselves must fit the geometric pmf
// P(gap = k) = p(1−p)^k (chi-square over near-equiprobable bins).
// This test is in the race-enabled CI set.
func TestLossyDistributionalEquivalence(t *testing.T) {
	const rounds = 20_000
	for i, p := range []float64{0.005, 0.02, 0.08} {
		for j, s := range []int64{1, 2, 10, 44} {
			d := lossDialer(int64(100*i+j+1), p)
			lossy := 0
			for r := 0; r < rounds; r++ {
				if d.roundLossy(s) {
					lossy++
				}
			}
			q := 1 - math.Pow(1-p, float64(s))
			sigma := math.Sqrt(q * (1 - q) / rounds)
			if got := float64(lossy) / rounds; math.Abs(got-q) > 5*sigma {
				t.Errorf("p=%v s=%d: lossy fraction %.5f, want %.5f ± 5σ (σ=%.5f)", p, s, got, q, sigma)
			}
		}
		if chi2, df := geometricChiSquare(sim.NewRNG(int64(i+1)), p, rounds); chi2 > float64(df)+6*math.Sqrt(2*float64(df)) {
			t.Errorf("p=%v: lossGap chi-square %.1f on %d degrees of freedom", p, chi2, df)
		}
	}
}

// geometricChiSquare draws n gaps through lossGap and returns the
// chi-square statistic against the geometric pmf, over bins whose
// integer edges sit at the pmf's 1/20 quantiles, with its degrees of
// freedom.
func geometricChiSquare(rng *sim.RNG, p float64, n int) (chi2 float64, df int) {
	const bins = 20
	edges := []float64{0}
	for i := 1; i < bins; i++ {
		e := math.Ceil(math.Log(1-float64(i)/bins) / math.Log1p(-p))
		if e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	counts := make([]float64, len(edges))
	for i := 0; i < n; i++ {
		g := lossGap(rng.Float64(), p)
		b := sort.SearchFloat64s(edges, g+1) - 1 // last edge <= g
		counts[b]++
	}
	for b, lo := range edges {
		// P(lo <= gap < hi) = (1−p)^lo − (1−p)^hi; the last bin is
		// open-ended.
		prob := math.Pow(1-p, lo)
		if b+1 < len(edges) {
			prob -= math.Pow(1-p, edges[b+1])
		}
		want := prob * float64(n)
		chi2 += (counts[b] - want) * (counts[b] - want) / want
	}
	return chi2, len(edges) - 1
}

// TestLossGapSamplerEdges pins the pure geometric inversion at its
// numerical edges.
func TestLossGapSamplerEdges(t *testing.T) {
	if g := lossGap(0.5, 1); g != 0 {
		t.Fatalf("lossGap(0.5, p=1) = %v, want 0 (certain loss)", g)
	}
	if g := lossGap(0.5, 2); g != 0 {
		t.Fatalf("lossGap(0.5, p=2) = %v, want 0", g)
	}
	if g := lossGap(0, 0.02); !math.IsInf(g, 1) {
		t.Fatalf("lossGap(u=0) = %v, want +Inf (measure-zero draw must not NaN)", g)
	}
	// Denormal u: log of the smallest positive float is finite, the
	// gap must be finite, non-negative and integral.
	if g := lossGap(5e-324, 0.02); math.IsNaN(g) || g < 0 || g != math.Floor(g) || math.IsInf(g, 0) {
		t.Fatalf("lossGap(denormal u) = %v, want a finite non-negative integer", g)
	}
	// Vanishing p: log1p(-p) underflows toward 0, the ratio blows up —
	// must come out as a huge value or +Inf, never NaN or negative.
	for _, p := range []float64{1e-300, 5e-324} {
		if g := lossGap(0.5, p); math.IsNaN(g) || g < 1e100 {
			t.Fatalf("lossGap(0.5, p=%g) = %v, want huge/+Inf", p, g)
		}
	}
	// Exact geometric boundaries: u = (1−p)^k maps to gap k.
	for k := float64(0); k < 8; k++ {
		if g := lossGap(math.Pow(0.5, k), 0.5); g != k {
			t.Fatalf("lossGap(0.5^%v, 0.5) = %v, want %v", k, g, k)
		}
	}
	// Monotone: a smaller draw means a more negative ln(u) and so a
	// larger gap.
	if lossGap(0.01, 0.02) < lossGap(0.9, 0.02) {
		t.Fatal("lossGap not monotone decreasing in u")
	}
}

// TestVanishingLossFallsThroughToFastPath pins p→0: the sampled loss
// position lands beyond any finite transfer, so the engine emits
// exactly the loss-free closed form (spans included) at the cost of a
// single RNG draw.
func TestVanishingLossFallsThroughToFastPath(t *testing.T) {
	_, capClean, dClean, serverClean := testbed(zrhCoord(), 30e6, 0)
	cClean := dClean.Dial(serverClean, "s", sim.Epoch, PlainTCP)
	cClean.Send(16 << 20)

	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	d.Net.LossRate = 1e-18
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(16 << 20)

	if cap.SpanCount() == 0 {
		t.Fatal("vanishing loss rate did not take the span fast path")
	}
	if got := countRetransmitRecords(cap); got != 0 {
		t.Fatalf("%d retransmissions at p=1e-18", got)
	}
	if got := d.LossDraws(); got != 1 {
		t.Fatalf("LossDraws = %d, want exactly 1 (one sampled position, never reached)", got)
	}
	pa, pb := cap.ExpandedPackets(), capClean.ExpandedPackets()
	if len(pa) != len(pb) {
		t.Fatalf("record counts differ from clean run: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("record %d differs from clean run:\n lossy %+v\n clean %+v", i, pa[i], pb[i])
		}
	}
}

// finalBurstConfig is an uncapped, zero-processing path: every
// transfer is pure slow start, so a small send is one final burst.
var finalBurstConfig = engineConfig{"uncapped-final", geo.Coord{Lat: 39.04, Lon: -77.49}, 0, 0, PlainTCP}

// TestFinalBurstLossEquivalence pins verdicts on bursts that cover the
// remainder of the transfer: a scripted loss inside the very last
// burst costs exactly one retransmission and one RTT over the clean
// send, and a loss scripted beyond a transfer stays silent until it
// fires in the next transfer on the same connection. The records
// themselves are pinned by TestGoldenTransfers (final-burst/*,
// carry-over).
func TestFinalBurstLossEquivalence(t *testing.T) {
	run := func(script []int64) (*Conn, *trace.Capture) {
		c, cap := dialConfig(finalBurstConfig, 1, 0)
		c.d.InjectLossPositions(script)
		return c, cap
	}

	// Loss inside the only (and final) burst: 5000 bytes fit in the
	// initial window, segment 2 is scripted.
	a, capA := run([]int64{2})
	lastA, _ := a.Send(5000)
	if got := countRetransmitRecords(capA); got != 1 {
		t.Fatalf("final-burst loss: %d retransmissions, want 1", got)
	}
	// The recovery costs one extra RTT relative to a clean send.
	clean, _ := run(nil)
	cleanLast, _ := clean.Send(5000)
	if want := cleanLast.Add(a.RTT()); !lastA.Equal(want) {
		t.Fatalf("final-burst loss completion %v, want clean+RTT %v", lastA, want)
	}

	// Scripted position beyond the first transfer: silent now, must
	// fire once in the NEXT transfer on the same connection.
	a, capA = run([]int64{100})
	a.Send(5000)
	if got := countRetransmitRecords(capA); got != 0 {
		t.Fatalf("loss beyond transfer fired early: %d retransmissions", got)
	}
	a.Send(1 << 20)
	if got := countRetransmitRecords(capA); got != 1 {
		t.Fatalf("carry-over script: %d retransmissions, want 1", got)
	}
}

// TestAnalyticLossDrawReduction pins the loss sampler's draw bound on
// paper-grade mobile-uplink paths (2 Mb/s, WhatIfMobileUplink's rate):
// a 16 MB transfer at 2% loss consumes at most one RNG draw per loss
// event plus one pending sample — at least 10x fewer than one verdict
// per data round — and its clean runs collapse at least 4x in records.
// On the TLS Zurich path it also pins the exact counts: 732
// Sink.Record calls and 245 RNG draws.
func TestAnalyticLossDrawReduction(t *testing.T) {
	for _, tc := range []struct {
		cfg            engineConfig
		records, draws int64 // exact counts; 0 leaves the path to the bounds
	}{
		{cfg: engineConfig{"uplink-2mbps", zrhCoord(), 2e6, 0, PlainTCP}},
		{cfg: engineConfig{"zurich-2mbps", geo.Coord{Lat: 47.38, Lon: 8.54}, 2e6, 0, DefaultTLS}, records: 732, draws: 245},
	} {
		a, capA := dialConfig(tc.cfg, 1, 0.02)
		a.Send(16 << 20)
		draws, retransmits := a.d.LossDraws(), countRetransmitRecords(capA)
		if draws == 0 || retransmits == 0 {
			t.Fatalf("%s: loss process silent: %d draws, %d retransmits", tc.cfg.name, draws, retransmits)
		}
		if draws > retransmits+1 {
			t.Fatalf("%s: %d RNG draws for %d loss events, want <= loss events + 1", tc.cfg.name, draws, retransmits)
		}
		var rounds int64
		for _, p := range capA.ExpandedPackets() {
			if p.Payload > 0 {
				rounds++
			}
		}
		if draws*10 > rounds {
			t.Fatalf("%s: %d RNG draws for %d data rounds — want >=10x fewer than one per round", tc.cfg.name, draws, rounds)
		}
		if capA.Len()*4 > capA.ExpandedLen() {
			t.Fatalf("%s: recorded %d records for %d slices — want >=4x reduction", tc.cfg.name, capA.Len(), capA.ExpandedLen())
		}
		if tc.records != 0 && (int64(capA.Len()) != tc.records || draws != tc.draws) {
			t.Fatalf("%s: %d Sink.Record calls and %d RNG draws, want %d and %d",
				tc.cfg.name, capA.Len(), draws, tc.records, tc.draws)
		}
	}
}
