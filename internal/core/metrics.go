package core

import (
	"math"
	"slices"
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
	// relative to the magnitude of the respective mean, and exactly 0
	// for a sample with no spread. It is the statistic a precision
	// target stops on, under a fixed budget or an adaptive rule alike,
	// so two snapshots can be compared at equal confidence; under
	// antithetic pairing it is taken over pair means.
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
	completions, goodputs := headlines(runs, false)
	startups := make([]float64, len(runs))
	for i, r := range runs {
		startups[i] = float64(r.Startup)
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
	s.AchievedRelHW = worstRelHW(completions, goodputs)
	return s
}

// achievedRelHW is the precision statistic of a sample of
// repetitions: the larger relative CI95 half-width of completion and
// goodput, over the repetitions themselves or, under antithetic
// pairing, over the means of consecutive (plain, complemented) pairs.
// Summarize reports it unpaired, and a cell under a precision target
// stops on it.
func achievedRelHW(runs []Metrics, pair bool) float64 {
	return worstRelHW(headlines(runs, pair))
}

// headlines returns the headline samples of runs — completion and
// goodput — one value per repetition, or under pairing one per whole
// pair (an unpaired last repetition is left out).
func headlines(runs []Metrics, pair bool) (completions, goodputs []float64) {
	step := 1
	if pair {
		step = 2
	}
	completions = make([]float64, 0, len(runs)/step)
	goodputs = make([]float64, 0, len(runs)/step)
	for i := 0; i+step <= len(runs); i += step {
		c, g := float64(runs[i].Completion), runs[i].GoodputBps
		if pair {
			c, g = (c+float64(runs[i+1].Completion))/2, (g+runs[i+1].GoodputBps)/2
		}
		completions = append(completions, c)
		goodputs = append(goodputs, g)
	}
	return completions, goodputs
}

func worstRelHW(completions, goodputs []float64) float64 {
	return math.Max(relHalfWidth(completions), relHalfWidth(goodputs))
}

// relHalfWidth is the CI95 half-width relative to the magnitude of
// the mean: exactly 0 for a degenerate sample (fewer than two values,
// or all equal, whose rounded mean would otherwise leave a residue of
// ~1e-16), +Inf for a zero mean with spread, which never satisfies a
// finite precision target.
func relHalfWidth(v []float64) float64 {
	mean, hw := stats.MeanCI95(v)
	if hw == 0 || slices.Min(v) == slices.Max(v) {
		return 0
	}
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(hw / mean)
}
