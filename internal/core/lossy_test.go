package core

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/goldenfile"
	"repro/internal/sim"
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

// lossyRun measures one repetition of the production upload script
// (runOnce) over a path with the given loss rate, and returns its
// metrics with a recorder over the whole run, login included. The
// recorder must open before the login traffic, so it comes from a
// second run that copies syncCell.open with the recorder registered
// first; that copy must measure exactly what runOnce did, so a change
// to the production script changes the golden rather than slipping
// past it.
func lossyRun(t *testing.T, p client.Profile, batch workload.Batch, seed int64, loss float64) (Metrics, *trace.Capture) {
	t.Helper()
	c := syncCell{p: p, batch: batch, host: campusHost, loss: loss}
	m := c.runOnce(seed)

	tb := cellWorlds([]syncCell{c})[0].testbed(p, c.host(), sim.NewRNG(seed), c.jitter)
	tb.Net.LossRate = loss
	rec := tb.Stream.AddRecorder(time.Time{})
	t0 := tb.Settle()
	tb.StartWindow(t0)
	c.upload(tb, t0)
	if cm := MeasureWindow(tb, t0, batch.Total()); cm != m {
		t.Fatalf("whole-run recorder copy measured %+v, production script %+v", cm, m)
	}
	return m, rec
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

	m, cap := lossyRun(t, p, batch, 99, 0.02)

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
	clean, _ := lossyRun(t, p, batch, 99, 0)
	if clean.TotalTraffic >= m.TotalTraffic {
		t.Errorf("lossy run carried no extra wire bytes: %d vs clean %d", m.TotalTraffic, clean.TotalTraffic)
	}
	if clean.Completion >= m.Completion {
		t.Errorf("lossy run was not slower: %v vs clean %v", m.Completion, clean.Completion)
	}
}

// TestLossyStreamingMatchesBuffered extends the stream-vs-recorder
// equivalence to lossy paths: the streaming fold must agree with the
// recorder's buffered copy of the window bit for bit even when the
// engine interleaves span records with retransmissions.
func TestLossyStreamingMatchesBuffered(t *testing.T) {
	batch := workload.Batch{Count: 2, Size: 1 << 20, Kind: workload.Binary}
	for _, svc := range []string{"skydrive", "dropbox", "googledrive"} {
		p, _ := client.ProfileFor(svc)
		tb, t0, rec := syncCell{p: p, batch: batch, host: campusHost, loss: 0.03}.recordedRun(7)
		checkWindowMatchesRecorder(t, svc, tb, t0, rec)
	}
}
