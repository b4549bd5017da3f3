package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultReps is the paper's repetition count: "Each experiment is
// repeated 24 times per service."
const DefaultReps = 24

// DefaultJitter is the RTT jitter fraction used by benchmark
// campaigns, giving repetitions their dispersion.
const DefaultJitter = 0.10

// RunSync executes one repetition of a synchronization benchmark:
// fresh testbed, login, settle, materialize the batch, let the client
// synchronize, and measure everything from the trace. Repetitions run
// in streaming-trace mode: packets are folded into the benchmark
// window at record time and discarded, so a repetition's trace memory
// is O(flows) regardless of workload size. Metrics are bit-identical
// to the buffered path (pinned by the golden and equivalence tests).
func RunSync(p client.Profile, batch workload.Batch, seed int64, jitter float64) Metrics {
	return syncCell{p: p, batch: batch, host: campusHost, jitter: jitter}.runOnce(seed)
}

// MeasureWindow computes the Sect. 5 metrics for the benchmark window
// starting at t0, for a workload of contentBytes. Every scalar comes
// off two Analysis reads (one per flow selection: all flows, storage
// flows) of the one Sect. 5 fold: on a streaming testbed each reads
// the accumulators folded while recording; on a buffered testbed each
// replays a time cut of the trace through the same fold.
func MeasureWindow(tb *Testbed, t0 time.Time, contentBytes int64) Metrics {
	storage := tb.AnalyzeWindow(t0, tb.StorageFilter(t0))
	all := tb.AnalyzeWindow(t0, trace.AllFlows)

	var m Metrics
	if storage.HasPayload {
		m.Startup = storage.FirstPayload.Sub(t0)
		m.Completion = storage.LastPayload.Sub(storage.FirstPayload)
	}
	m.TotalTraffic = all.TotalWire
	m.StorageUp = storage.WireUp
	if contentBytes > 0 {
		m.Overhead = float64(m.TotalTraffic) / float64(contentBytes)
	}
	m.Connections = all.Connections
	if m.Completion > 0 && contentBytes > 0 {
		m.GoodputBps = float64(contentBytes*8) / m.Completion.Seconds()
	}
	return m
}

// campaignSeed derives the seed of one repetition from the campaign
// base seed — the same derivation the sequential engine always used,
// so campaigns are reproducible across engine versions and worker
// counts.
func campaignSeed(baseSeed int64, rep int) int64 {
	return baseSeed + int64(rep)*7919
}

// RunCampaign repeats one benchmark the paper's way — reps
// repetitions with independent randomness (reps <= 0 means
// DefaultReps) — and aggregates. Repetitions fan out over the shared
// scheduler pool (CampaignWorkers); the summary is bit-identical to a
// sequential run of the same base seed.
func RunCampaign(p client.Profile, batch workload.Batch, reps int, baseSeed int64) Summary {
	return runCampaign(p, batch, fixedRule(reps), VarianceReduction{}, baseSeed)
}

// RunCampaignAdaptive is RunCampaign under a stopping rule: the same
// campaignSeed repetition stream (rep k of an adaptive run is
// bit-identical to rep k of a fixed one when vr is zero), stopped as
// soon as the precision target is met.
func RunCampaignAdaptive(p client.Profile, batch workload.Batch, rule StopRule, vr VarianceReduction, baseSeed int64) Summary {
	return runCampaign(p, batch, rule.withDefaults(vr), vr, baseSeed)
}

// runCampaign is the single-cell campaign body: repetition k runs on
// campaignSeed(baseSeed, k) from the campus test computer.
func runCampaign(p client.Profile, batch workload.Batch, rule StopRule, vr VarianceReduction, baseSeed int64) Summary {
	cell := syncCell{p: p, batch: batch, host: campusHost, jitter: DefaultJitter,
		seed: func(rep int) int64 { return campaignSeed(baseSeed, rep) }}
	return summarizeCells([]syncCell{cell}, rule, vr)[0]
}

// IdleResult is one service's Fig. 1 dataset: the cumulative traffic
// timeline from client start through 16 minutes, plus derived rates.
type IdleResult struct {
	Service string
	// Timeline is cumulative wire bytes over time, anchored at the
	// client start instant (x-axis of Fig. 1).
	Timeline []trace.TimelinePoint
	// LoginBytes is the traffic of the login phase.
	LoginBytes int64
	// IdleRateBps is the background traffic rate after login, in
	// bits per second (Sect. 3.1: 82 b/s Dropbox ... 6 kb/s Cloud
	// Drive).
	IdleRateBps float64
}

// IdleWindow is Fig. 1's observation period.
const IdleWindow = 16 * time.Minute

// RunIdle executes the Fig. 1 experiment for one service: start the
// client, let it log in and then sit idle, and watch the control
// traffic accumulate for 16 minutes. It runs on a buffered trace by
// necessity: the cumulative timeline is a per-packet output, and the
// login/idle windows are only known after the fact.
func RunIdle(p client.Profile, seed int64) IdleResult {
	tb := NewTestbed(p, seed, 0)
	t0 := tb.Clock.Now()
	loginDone := tb.Client.Login(t0)
	tb.Clock.AdvanceTo(loginDone)
	tb.Client.InstallPoller(tb.Sched)
	end := t0.Add(IdleWindow)
	tb.Sched.RunUntil(end)

	win := tb.Cap.Window(t0, end)
	all := win.Analyze(trace.AllFlows)
	login := tb.Cap.Window(t0, loginDone).Analyze(trace.AllFlows)
	idleBytes := all.TotalWire - login.TotalWire
	idleSecs := end.Sub(loginDone).Seconds()

	return IdleResult{
		Service:     p.Service,
		Timeline:    win.CumulativeBytes(trace.AllFlows),
		LoginBytes:  login.TotalWire,
		IdleRateBps: float64(idleBytes*8) / idleSecs,
	}
}

// SYNSeries is one service's Fig. 3 dataset: cumulative TCP SYNs over
// time while uploading a batch.
type SYNSeries struct {
	Service string
	// Times are the SYN instants relative to the first file event.
	Times []time.Duration
	// Duration is the upload completion time for the same run.
	Duration time.Duration
}

// RunSYNCount executes the Fig. 3 experiment: upload 100 files of
// 10 kB and record every connection the client opens. The SYN
// timeline survives streaming (one instant per connection, O(flows)),
// so this runs the upload script on the streaming trace like the
// campaign cells.
func RunSYNCount(p client.Profile, batch workload.Batch, seed int64) SYNSeries {
	tb, t0 := syncCell{p: p, batch: batch, host: campusHost}.syncOnce(seed, true)
	out := SYNSeries{Service: p.Service}
	for _, ts := range tb.AnalyzeWindow(t0, trace.AllFlows).SYNTimes {
		out.Times = append(out.Times, ts.Sub(t0))
	}
	out.Duration = MeasureWindow(tb, t0, batch.Total()).Completion
	return out
}
