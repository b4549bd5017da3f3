package core

import (
	"math"
	"time"

	"repro/internal/stats"
)

// Metrics are the per-repetition measurements of Sect. 5, all derived
// from the packet trace.
type Metrics struct {
	// Startup is the synchronization start-up time (Fig. 6a): from
	// the first file manipulation to the first payload packet in a
	// storage flow.
	Startup time.Duration
	// Completion is the upload duration (Fig. 6b): first to last
	// payload packet in storage flows, tear-down excluded.
	Completion time.Duration
	// TotalTraffic is all benchmark-window traffic, storage and
	// control, both directions, wire bytes.
	TotalTraffic int64
	// StorageUp is the upstream wire volume on storage flows — the
	// "Upload (MB)" axis of Figs. 4 and 5.
	StorageUp int64
	// Overhead is TotalTraffic divided by the workload's content
	// size (Fig. 6c; log scale, can exceed 1 by a lot).
	Overhead float64
	// Connections counts client-initiated TCP connections in the
	// window (Fig. 3).
	Connections int
	// GoodputBps is content bits per completion second — the rates
	// quoted in Sect. 5.2 (e.g. Google Drive 26.49 Mb/s).
	GoodputBps float64
}

// Summary aggregates repetitions of one experiment the way the paper
// plots them (averages over 24 runs).
type Summary struct {
	Reps             int
	MeanStartup      time.Duration
	StdStartup       time.Duration
	MeanCompletion   time.Duration
	StdCompletion    time.Duration
	MedianCompletion time.Duration
	P95Completion    time.Duration
	CI95Completion   time.Duration // half-width of the 95% CI of the mean
	MeanTotalTraffic int64
	MeanStorageUp    int64
	MeanOverhead     float64
	MeanConnections  float64
	MedianGoodputBps float64
	// RepsUsed is how many repetitions actually ran (Summarize sets
	// it to Reps). Under a fixed budget it is that budget; under a
	// precision target the cell stops once the target is met, so
	// snapshots record the spent budget alongside the result.
	RepsUsed int
	// AchievedRelHW is the achieved relative precision: the largest
	// CI95 half-width over the headline metrics (completion, goodput),
	// relative to the magnitude of the respective mean. Cells run
	// under a precision target stop when it reaches the target and
	// record the statistic the rule tested; fixed budgets report
	// Summarize's value so two snapshots can be compared at equal
	// confidence.
	AchievedRelHW float64
}

// Summarize aggregates a set of repetitions. It panics on an empty
// input: a benchmark that produced no repetitions is a harness bug.
func Summarize(runs []Metrics) Summary {
	if len(runs) == 0 {
		panic("core: Summarize of zero repetitions")
	}
	var s Summary
	s.Reps = len(runs)
	s.RepsUsed = len(runs)
	var startups, completions, goodputs []float64
	for _, r := range runs {
		startups = append(startups, float64(r.Startup))
		completions = append(completions, float64(r.Completion))
		goodputs = append(goodputs, r.GoodputBps)
		s.MeanTotalTraffic += r.TotalTraffic
		s.MeanStorageUp += r.StorageUp
		s.MeanOverhead += r.Overhead
		s.MeanConnections += float64(r.Connections)
	}
	n := float64(len(runs))
	s.MeanTotalTraffic = int64(float64(s.MeanTotalTraffic) / n)
	s.MeanStorageUp = int64(float64(s.MeanStorageUp) / n)
	s.MeanOverhead /= n
	s.MeanConnections /= n

	s.MeanStartup = time.Duration(stats.Mean(startups))
	s.StdStartup = time.Duration(stats.Std(startups))
	mean, hw := stats.MeanCI95(completions)
	s.MeanCompletion = time.Duration(mean)
	s.CI95Completion = time.Duration(hw)
	s.StdCompletion = time.Duration(stats.Std(completions))
	s.MedianCompletion = time.Duration(stats.Median(completions))
	s.P95Completion = time.Duration(stats.Percentile(completions, 95))
	s.MedianGoodputBps = stats.Median(goodputs)
	s.AchievedRelHW = math.Max(relHalfWidth(completions), relHalfWidth(goodputs))
	return s
}

// relHalfWidth is the batch form of stats.Accumulator.RelHalfWidth:
// the CI95 half-width relative to the magnitude of the mean, 0 for a
// degenerate (zero-spread) sample, +Inf for a zero mean with spread.
func relHalfWidth(v []float64) float64 {
	mean, hw := stats.MeanCI95(v)
	if hw == 0 {
		return 0
	}
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(hw / mean)
}
