package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment scheduler. The paper's
// methodology is embarrassingly parallel above the repetition level:
// Table 1 capability detection, the Fig. 4/5 size sweeps, the Fig. 6
// campaigns and the location study are all independent (service,
// workload, vantage) cells. Every campaign-of-campaigns loop in the
// package fans its index space out through RunN — the repeated
// layers via the campaign driver (RunUntil, driver.go), one flat
// cell x repetition round at a time — so one knob — CampaignWorkers,
// cmd/cloudbench's -parallel — governs the whole experiment matrix.
//
// Determinism contract: a cell must derive everything it needs (seed,
// testbed, RNG) from its own index, exactly like campaignSeed does
// for repetitions. Cells write only their own result slot, so the
// output is bit-identical to a sequential run at any worker count and
// under any scheduling; -parallel only changes wall-clock time. The
// golden-equivalence tests in scheduler_test.go pin this for every
// lifted layer.

// CampaignWorkers is the single parallelism knob of the experiment
// engine: how many experiment cells (benchmark repetitions, size-sweep
// points, capability detectors, location-study cells) run concurrently,
// each on its own testbed. Zero (the default) means one worker per
// available CPU. Set to 1 to force the sequential engine; results are
// bit-identical either way. cmd/cloudbench and cmd/capcheck expose
// this as -parallel.
var CampaignWorkers int

// workerBudget resolves the effective process-wide worker budget:
// CampaignWorkers, or one worker per CPU when unset.
func workerBudget() int {
	if CampaignWorkers > 0 {
		return CampaignWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// helpersActive counts helper goroutines currently running across all
// pools in the process. It is what keeps nested fan-outs (cmd/cloudbench
// over services, each service over its Fig. 4 sweep sizes or Sect. 4
// detectors) on one shared budget instead of multiplying pool sizes: a pool spawns a
// helper only while the process-wide count is below the budget, and a
// cell that fans out again simply runs its sub-cells inline when the
// budget is spent. Acquisition never blocks, so nesting cannot
// deadlock.
var helpersActive atomic.Int64

// tryAcquireHelper reserves one helper slot if fewer than limit are
// active process-wide.
func tryAcquireHelper(limit int) bool {
	for {
		cur := helpersActive.Load()
		if cur >= int64(limit) {
			return false
		}
		if helpersActive.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helpersActive.Add(-1) }

// RunN executes fn for every index in [0, n) on a bounded worker pool
// and returns the results in index order. workers caps this call's
// fan-out explicitly; workers <= 0 defers to the shared budget
// (CampaignWorkers, default one per CPU). The calling goroutine
// always works too, so RunN(n, 1, fn) is exactly a sequential loop.
// fn must derive everything from its index (see the determinism
// contract above); RunN guarantees fn(i)'s result lands in slot i
// regardless of scheduling.
func RunN[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	budget := workers
	if budget <= 0 {
		budget = workerBudget()
	}
	if budget > n {
		budget = n
	}
	out := make([]T, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(i)
		}
	}
	if budget <= 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	for spawned := 1; spawned < budget && tryAcquireHelper(budget-1); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// RunEach is RunN for cells evaluated for effect only (each cell
// writing its own disjoint output, e.g. distinct struct fields).
func RunEach(n, workers int, fn func(i int)) {
	RunN(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}
