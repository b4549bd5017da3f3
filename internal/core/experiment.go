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
// synchronize, and measure everything from the trace. Packets are
// folded into the benchmark window at record time and discarded, so a
// repetition's trace memory is O(flows) regardless of workload size.
func RunSync(p client.Profile, batch workload.Batch, seed int64, jitter float64) Metrics {
	return syncCell{p: p, batch: batch, host: campusHost, jitter: jitter}.runOnce(seed)
}

// MeasureWindow computes the Sect. 5 metrics for the benchmark window
// starting at t0, for a workload of contentBytes. Every scalar comes
// off two Analysis reads (one per flow selection: all flows, storage
// flows) of the accumulators the one Sect. 5 fold filled while
// recording.
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
// traffic accumulate for 16 minutes. The cumulative timeline is a
// per-packet output, and login traffic can outlast the instant Login
// returns, so the login cut is taken after the fact: the run keeps a
// recorder from the start (idleTrace).
func RunIdle(p client.Profile, seed int64) IdleResult {
	rec, t0, loginDone, end := idleTrace(p, seed)
	win := rec.Window(t0, end)
	all := win.Analyze(trace.AllFlows)
	login := rec.Window(t0, loginDone).Analyze(trace.AllFlows)
	idleBytes := all.TotalWire - login.TotalWire
	idleSecs := end.Sub(loginDone).Seconds()

	return IdleResult{
		Service:     p.Service,
		Timeline:    win.CumulativeBytes(trace.AllFlows),
		LoginBytes:  login.TotalWire,
		IdleRateBps: float64(idleBytes*8) / idleSecs,
	}
}

// idleTrace drives a fresh client through login and the IdleWindow
// idle period with a recorder registered at the start, the run
// Fig. 1 and the Sect. 3.1 protocol report both cut. It returns the
// recorder, the client start, the instant Login returned and the end
// of the idle period.
func idleTrace(p client.Profile, seed int64) (rec *trace.Capture, t0, loginDone, end time.Time) {
	tb := NewTestbed(p, seed, 0)
	t0 = tb.Clock.Now()
	rec = tb.Stream.AddRecorder(t0)
	loginDone = tb.Client.Login(t0)
	tb.Clock.AdvanceTo(loginDone)
	tb.Client.InstallPoller(tb.Sched)
	end = t0.Add(IdleWindow)
	tb.Sched.RunUntil(end)
	return rec, t0, loginDone, end
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
// timeline is part of the streamed fold (one instant per connection,
// O(flows)), so this is the campaign cells' upload script, read once.
func RunSYNCount(p client.Profile, batch workload.Batch, seed int64) SYNSeries {
	tb, t0 := syncCell{p: p, batch: batch, host: campusHost}.syncOnce(seed)
	out := SYNSeries{Service: p.Service}
	for _, ts := range tb.AnalyzeWindow(t0, trace.AllFlows).SYNTimes {
		out.Times = append(out.Times, ts.Sub(t0))
	}
	out.Duration = MeasureWindow(tb, t0, batch.Total()).Completion
	return out
}
