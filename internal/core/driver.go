package core

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the campaign driver: the one engine behind every
// repeated campaign layer. Each layer has one body that takes a
// StopRule — runCampaign, fig6 (Fig6Matrix), lossSweep, locationStudy,
// runFullCampaign and detectCapabilities, the Table 1 suite whose
// repetition is a five-detector probe — and its fixed and adaptive
// entry points are presets of that body. A layer is a set of cells —
// (service, workload, vantage, loss rate) combinations, or one
// service per capability cell — each repeated under one StopRule. The
// driver runs the cells in rounds: each round fans the next batch of
// every still-open cell onto one flat RunN, cell-major and rep-minor,
// then folds each cell's batch in index order and asks that cell's
// rule whether to stop.
//
// A syncCell also owns the one upload script (syncCell.open, then
// syncCell.upload) — settle, open the window, create the batch, sync,
// advance the clock — so the single-upload studies (Fig. 3's SYN
// count, the what-if counterfactuals, the bundling and chunking
// detectors, Discover's probe phase) run the very repetition the
// campaign layers repeat, once.
//
// A fixed budget is the rule preset MinReps = MaxReps = reps
// (fixedRule): every cell closes after the opening batch, so the run
// is a single round over the flat cell x repetition matrix. A
// precision target makes the design sequential ("Sampling in Cloud
// Benchmarking", PAPERS.md): after the MinReps opening batch a cell
// grows by AdaptiveBatch, folding each batch into an incremental
// precision tracker (stats.Accumulator — O(batch) per check, not
// O(reps so far)), until the relative CI95 half-width of the headline
// metrics (completion, goodput) is under target or MaxReps is hit.
//
// Determinism: which repetitions run is a pure function of (seed,
// rule). Batch boundaries are constants of the rule — never derived
// from the worker count — and every cell folds its repetitions in
// index order, so the reps executed and the resulting Summaries are
// bit-identical at any worker count; -parallel only changes
// wall-clock time. Rep k of a cell is the same repetition under
// every rule, so a fixed run is the prefix of any adaptive run.

// Default stopping parameters: stop when the headline means are known
// to ±5%, never before 8 repetitions (below that the t critical value
// explodes and one outlier flips the decision), never beyond 96.
const (
	DefaultTargetRelHW = 0.05
	DefaultMinReps     = 8
	DefaultMaxReps     = 96
)

// AdaptiveBatch is the growth step of the sequential design: after
// the MinReps opening batch, repetitions are added this many at a
// time between precision checks. It is a fixed constant — batch
// boundaries gate the stopping test, so they must not depend on the
// worker count or the decision would change with -parallel.
const AdaptiveBatch = 4

// StopRule is a sequential stopping design: run at least MinReps
// repetitions, then keep adding batches until the relative CI95
// half-width of every headline metric is at most TargetRelHW or
// MaxReps is reached. Zero fields take the defaults above.
type StopRule struct {
	// TargetRelHW is the precision target: the CI95 half-width of
	// the mean, relative to the magnitude of the mean.
	TargetRelHW float64
	// MinReps is the smallest sample the rule may stop at (>= 2, so
	// a half-width exists; >= 4 under antithetic pairing).
	MinReps int
	// MaxReps is the hard budget cap.
	MaxReps int
}

// repsLimit bounds a rule's repetition counts: the driver allocates a
// cell's opening batch of MinReps results at once.
const repsLimit = 1 << 16

// Validate rejects a rule no campaign under vr can honour: a precision
// target outside [0, 1) (zero takes the default), a repetition bound
// outside [0, repsLimit], or a set MaxReps below the minimum the rule
// resolves to (withDefaults), so a cap is never raised.
func (r StopRule) Validate(vr VarianceReduction) error {
	switch {
	case !(r.TargetRelHW >= 0 && r.TargetRelHW < 1):
		return fmt.Errorf("precision target %g is outside [0, 1)", r.TargetRelHW)
	case r.MinReps < 0 || r.MaxReps < 0:
		return fmt.Errorf("repetition bounds must be >= 0 (min %d, max %d)", r.MinReps, r.MaxReps)
	case r.MinReps > repsLimit || r.MaxReps > repsLimit:
		return fmt.Errorf("repetition bounds must be <= %d (min %d, max %d)", repsLimit, r.MinReps, r.MaxReps)
	}
	if minReps := r.withDefaults(vr).MinReps; r.MaxReps > 0 && minReps > r.MaxReps {
		return fmt.Errorf("min reps %d exceeds max reps %d", minReps, r.MaxReps)
	}
	return nil
}

// withDefaults resolves an adaptive rule that Validate(vr) accepts:
// zero fields take the defaults and MinReps is at least 2, so a
// half-width exists. Under antithetic pairing the stopping statistic
// is computed over pair means, so a decision needs at least two
// complete pairs, and both bounds are rounded inward to whole pairs.
// Only an unset MaxReps is ever raised, to a MinReps above
// DefaultMaxReps.
func (r StopRule) withDefaults(vr VarianceReduction) StopRule {
	if r.TargetRelHW <= 0 {
		r.TargetRelHW = DefaultTargetRelHW
	}
	if r.MinReps <= 0 {
		r.MinReps = DefaultMinReps
	}
	if r.MinReps < 2 {
		r.MinReps = 2
	}
	if r.MaxReps <= 0 {
		r.MaxReps = DefaultMaxReps
	}
	if vr.Antithetic {
		r.MinReps += r.MinReps % 2
		if r.MinReps < 4 {
			r.MinReps = 4
		}
		r.MaxReps -= r.MaxReps % 2
	}
	if r.MaxReps < r.MinReps {
		r.MaxReps = r.MinReps
	}
	return r
}

// fixedRule is the fixed-budget preset: exactly reps repetitions per
// cell, reps <= 0 meaning the paper's DefaultReps. It has no precision
// target, so cells keep Summarize's AchievedRelHW, and unlike an
// adaptive rule it allows a single repetition.
func fixedRule(reps int) StopRule {
	if reps <= 0 {
		reps = DefaultReps
	}
	return StopRule{MinReps: reps, MaxReps: reps}
}

// VarianceReduction selects the variance-reduction techniques the
// index→seed discipline makes nearly free. Both shrink the achieved
// half-width at equal repetitions — i.e. hit the target with fewer —
// and both keep every stream per-cell deterministic.
type VarianceReduction struct {
	// Antithetic pairs repetitions: rep 2k+1 reuses rep 2k's seed on
	// the complemented PCG stream (sim.NewAntitheticRNG), so its
	// jitter draws mirror its twin's and pair means have less
	// variance than two independent repetitions. The stopping
	// statistic is computed over pair means.
	Antithetic bool
	// CRN gives every service the same repetition seed stream
	// (common random numbers) in the multi-service sweeps, so
	// cross-service Compare diffs are paired: services face
	// identical noise and their difference is not inflated by it.
	// The Fig. 6 matrix already has this property by construction
	// (fig6Seed carries no service index).
	CRN bool
}

// RunUntil is the campaign driver. It repeats run(cell, 0..) for each
// of cells cells under rule and returns every cell's results in rep
// order. Each round evaluates the next batch of every open cell on
// one flat RunN, cell-major and rep-minor, then hands each cell's
// batch to stop in cell order; stop folds the batch and reports
// whether that cell's sample satisfies the rule. The first batch has
// MinReps repetitions, later ones AdaptiveBatch, the last is clipped
// to MaxReps, and a cell closes once stop is satisfied or MaxReps is
// reached — all constants of the rule, so which repetitions execute
// is a pure function of (rule, stop), independent of workers. The
// rule is used as given: resolve it with withDefaults or fixedRule.
func RunUntil[T any](cells int, rule StopRule, workers int, run func(cell, rep int) T, stop func(cell int, batch []T) bool) [][]T {
	out := make([][]T, cells)
	open := make([]int, cells)
	for c := range open {
		open[c] = c
	}
	done, size := 0, max(rule.MinReps, 1)
	for len(open) > 0 && done < rule.MaxReps {
		base, n := done, min(size, rule.MaxReps-done)
		batch := RunN(len(open)*n, workers, func(i int) T { return run(open[i/n], base+i%n) })
		still := open[:0]
		for k, c := range open {
			b := batch[k*n : (k+1)*n]
			out[c] = append(out[c], b...)
			if !stop(c, b) {
				still = append(still, c)
			}
		}
		open, done, size = still, done+n, AdaptiveBatch
	}
	return out
}

// precisionTracker folds repetitions into the incremental stopping
// statistic: one stats.Accumulator per headline metric, over raw
// repetitions or — under antithetic pairing — over the means of
// consecutive (plain, complemented) pairs.
type precisionTracker struct {
	pair                bool
	pending             bool
	pendC, pendG        float64
	completion, goodput stats.Accumulator
}

func (t *precisionTracker) observe(m Metrics) {
	c, g := float64(m.Completion), m.GoodputBps
	if !t.pair {
		t.completion.Add(c)
		t.goodput.Add(g)
		return
	}
	if !t.pending {
		t.pendC, t.pendG, t.pending = c, g, true
		return
	}
	t.completion.Add((t.pendC + c) / 2)
	t.goodput.Add((t.pendG + g) / 2)
	t.pending = false
}

// relHW is the current stopping statistic: the worst relative CI95
// half-width over the headline metrics.
func (t *precisionTracker) relHW() float64 {
	r := t.completion.RelHalfWidth()
	if g := t.goodput.RelHalfWidth(); g > r {
		r = g
	}
	return r
}

// vrRNG builds the repetition's randomness root: the plain PCG stream,
// or its complemented twin for the odd half of an antithetic pair.
func vrRNG(seed int64, anti bool) *sim.RNG {
	if anti {
		return sim.NewAntitheticRNG(seed)
	}
	return sim.NewRNG(seed)
}

// open is the first half of the one upload script behind every
// single-upload study and campaign layer: a fresh testbed seeded with
// randomness root rng on the cell's world, login, settle, and open
// the benchmark window at the instant t0 it returns. The cell's loss
// rate applies to every path, set before any traffic, so login and
// settle share the lossy path as they would under netem. A study that
// walks packets registers its recorder at t0, between the two halves.
func (c *syncCell) open(w *world, rng *sim.RNG) (*Testbed, time.Time) {
	tb := w.testbed(c.p, c.host(), rng, c.jitter)
	tb.Net.LossRate = c.loss
	t0 := tb.Settle()
	tb.StartWindow(t0)
	return tb, t0
}

// upload is the second half of the upload script: materialize the
// batch at the window start t0, let the client synchronize and
// advance the clock to its end.
func (c *syncCell) upload(tb *Testbed, t0 time.Time) {
	c.batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
	res := tb.Client.SyncChanges(tb.Folder, t0.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
}

// runSync is one measured synchronization-benchmark repetition: the
// upload script, then the Sect. 5 metrics of its window.
func (c *syncCell) runSync(w *world, rng *sim.RNG) Metrics {
	tb, t0 := c.open(w, rng)
	c.upload(tb, t0)
	return MeasureWindow(tb, t0, c.batch.Total())
}

// syncCell is one cell of a repeated campaign layer: a profile
// uploading a batch from a host over a path with the given jitter and
// loss rate, and seed, the cell's slice of the index→seed discipline.
type syncCell struct {
	p      client.Profile
	batch  workload.Batch
	host   func() *netem.Host
	jitter float64
	loss   float64
	seed   func(rep int) int64
}

// openOnce opens the cell once on seed, on a world of its own: the
// first half of the upload script.
func (c syncCell) openOnce(seed int64) (*Testbed, time.Time) {
	return c.open(cellWorlds([]syncCell{c})[0], sim.NewRNG(seed))
}

// syncOnce runs the whole upload script once on seed, on a world of
// its own, and returns the synced testbed and the window start.
func (c syncCell) syncOnce(seed int64) (*Testbed, time.Time) {
	tb, t0 := c.openOnce(seed)
	c.upload(tb, t0)
	return tb, t0
}

// recordedRun runs the whole upload script once on seed, on a world
// of its own, with a recorder registered at the window start between
// its two halves — the run every packet-walking detector reads. It
// returns the synced testbed, the window start and the recorder.
func (c syncCell) recordedRun(seed int64) (*Testbed, time.Time, *trace.Capture) {
	tb, t0 := c.openOnce(seed)
	rec := tb.Stream.AddRecorder(t0)
	c.upload(tb, t0)
	return tb, t0, rec
}

// runOnce is a single measured repetition of the cell on seed, on a
// world of its own.
func (c syncCell) runOnce(seed int64) Metrics {
	return c.runSync(cellWorlds([]syncCell{c})[0], sim.NewRNG(seed))
}

// cellWorlds checks every cell's path impairments (netem.CheckPath)
// and builds the cells' static worlds, one per (service, vantage):
// cells that differ only in workload, loss or seed share one. The
// worlds live as long as the driver call that built them.
func cellWorlds(cells []syncCell) []*world {
	type key struct {
		service string
		at      geo.Coord
	}
	built := make(map[key]*world)
	out := make([]*world, len(cells))
	for i := range cells {
		c := &cells[i]
		mustPath(c.loss, c.jitter)
		k := key{c.p.Service, c.host().Coord}
		if built[k] == nil {
			built[k] = newWorld(cloud.SpecFor(c.p.Service), k.at)
		}
		out[i] = built[k]
	}
	return out
}

// runCells drives sync-benchmark cells under rule. Under antithetic
// pairing rep 2k+1 reuses rep 2k's seed on the complemented stream.
// A rule with a precision target folds every batch into the cell's
// precisionTracker and closes the cell once the target is met; the
// fixed preset has no target and folds nothing. It returns each
// cell's repetitions and trackers.
func runCells(cells []syncCell, rule StopRule, vr VarianceReduction) ([][]Metrics, []precisionTracker) {
	worlds := cellWorlds(cells)
	trackers := make([]precisionTracker, len(cells))
	runs := RunUntil(len(cells), rule, CampaignWorkers, func(ci, rep int) Metrics {
		anti := vr.Antithetic && rep%2 == 1
		if vr.Antithetic {
			rep -= rep % 2
		}
		c := &cells[ci]
		return c.runSync(worlds[ci], vrRNG(c.seed(rep), anti))
	}, func(ci int, batch []Metrics) bool {
		if rule.TargetRelHW <= 0 {
			return false
		}
		tr := &trackers[ci]
		tr.pair = vr.Antithetic
		for _, m := range batch {
			tr.observe(m)
		}
		return tr.relHW() <= rule.TargetRelHW
	})
	return runs, trackers
}

// summarizeCells is runCells folded into one Summary per cell. Under
// a precision target the recorded AchievedRelHW is the statistic the
// rule actually tested (pair means under antithetic pairing), so it
// is the value that gated stopping; the fixed preset keeps
// Summarize's.
func summarizeCells(cells []syncCell, rule StopRule, vr VarianceReduction) []Summary {
	runs, trackers := runCells(cells, rule, vr)
	out := make([]Summary, len(runs))
	for i, r := range runs {
		out[i] = Summarize(r)
		if rule.TargetRelHW > 0 {
			out[i].AchievedRelHW = trackers[i].relHW()
		}
	}
	return out
}
