package core

import (
	"testing"

	"repro/internal/client"
	"repro/internal/goldenfile"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The closed-form transport engine covers lossy paths too: the next
// loss position is sampled geometrically and the clean runs between
// losses collapse into span records (see internal/tcpsim/loss.go).
// This file is the end-to-end guard for that path: a golden campaign
// cell over a lossy network pins the retransmission accounting bit
// for bit, so the lossy engine can never silently drift from its
// retransmission accounting conventions.

// lossyRun drives the shared upload script over a path with the given
// loss rate and returns its metrics plus (in buffered mode) the
// capture.
func lossyRun(p client.Profile, batch workload.Batch, seed int64, loss float64, streaming bool) (Metrics, *trace.Capture) {
	tb, t0 := syncCell{p: p, batch: batch, host: campusHost, loss: loss}.syncOnce(seed, streaming)
	return MeasureWindow(tb, t0, batch.Total()), tb.Cap
}

// countRetransmits counts fast-retransmit records: MSS-sized wire-only
// segments with no payload, exactly as tcpsim emits them.
func countRetransmits(cap *trace.Capture) int {
	n := 0
	for _, p := range cap.ExpandedPackets() {
		if p.Payload == 0 && p.Segments == 1 &&
			p.Wire == tcpsim.MSS+tcpsim.HeaderPerSeg &&
			!p.Flags.SYN && !p.Flags.FIN && !p.Flags.RST {
			n++
		}
	}
	return n
}

// TestGoldenLossyCampaign pins a lossy repetition end to end: the
// retransmit count and every Sect. 5 metric, captured at a fixed
// seed, on the SkyDrive profile (slowest per-connection rate, so the
// 2 MB workload spends many rounds in the rate-limited regime where
// loss verdicts fall). Values live in testdata/golden_lossy.json and
// were regenerated for the analytic lossy engine (geometric
// next-loss sampling replaces the per-round draws, so the realized
// loss pattern at a given seed changes); sanctioned refreshes run
// scripts/regen-golden.sh.
func TestGoldenLossyCampaign(t *testing.T) {
	batch := workload.Batch{Count: 2, Size: 1 << 20, Kind: workload.Binary}
	p := client.SkyDrive()

	m, cap := lossyRun(p, batch, 99, 0.02, false)

	got := struct {
		Metrics     Metrics
		Retransmits int
	}{m, countRetransmits(cap)}
	goldenfile.Check(t, "testdata/golden_lossy.json", got)
	if got.Retransmits == 0 {
		t.Error("lossy run produced no retransmissions; the cell no longer exercises the loss process")
	}
	if cap.SpanCount() == 0 {
		t.Error("lossy trace contains no span records; clean runs between losses should collapse")
	}

	// A clean run of the same cell must beat the lossy one on both
	// wire volume and completion — retransmissions are pure overhead.
	clean, _ := lossyRun(p, batch, 99, 0, false)
	if clean.TotalTraffic >= m.TotalTraffic {
		t.Errorf("lossy run carried no extra wire bytes: %d vs clean %d", m.TotalTraffic, clean.TotalTraffic)
	}
	if clean.Completion >= m.Completion {
		t.Errorf("lossy run was not slower: %v vs clean %v", m.Completion, clean.Completion)
	}
}

// TestLossyStreamingMatchesBuffered extends the streaming-vs-buffered
// equivalence to lossy paths: the streaming fold must agree with the
// buffered trace bit for bit even when the engine interleaves span
// records with retransmissions.
func TestLossyStreamingMatchesBuffered(t *testing.T) {
	batch := workload.Batch{Count: 2, Size: 1 << 20, Kind: workload.Binary}
	for _, svc := range []string{"skydrive", "dropbox", "googledrive"} {
		p, _ := client.ProfileFor(svc)
		sm, _ := lossyRun(p, batch, 7, 0.03, true)
		bm, _ := lossyRun(p, batch, 7, 0.03, false)
		if sm != bm {
			t.Errorf("%s: lossy streaming metrics diverge\n stream %+v\n buffer %+v", svc, sm, bm)
		}
	}
}
