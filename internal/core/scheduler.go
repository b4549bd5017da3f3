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
// Fan-outs nest (cmd/cloudbench runs a pool over services, each
// service a pool over its Fig. 4 sweep sizes or Sect. 4 detectors),
// and every pool draws on one process-wide budget of helper
// goroutines instead of multiplying pool sizes. A pool spawns helpers
// only while the budget has room, so an inner pool opened while the
// outer one holds the budget starts on its caller alone. To keep the
// budget busy anyway, every pool that may run wider than one worker
// publishes its unclaimed cells in a process-wide registry of open
// pools. A goroutine that runs out of work — a helper whose pool is
// drained, or a caller whose own cells are all claimed while others
// still run — claims the next cell of the newest open pool that has
// room under that pool's own cap, one cell at a time, instead of
// exiting or blocking. Joining adds no goroutine: it only lends one
// that would otherwise idle. A caller blocks only when nothing is
// joinable, and wakes when a pool opens, a joined pool gains room, or
// its own last cell finishes. Every wait is for a pool opened after
// the waiting frame started, so nesting cannot deadlock.
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
// bit-identical either way. cmd/cloudbench exposes this as -parallel.
var CampaignWorkers int

// workerBudget resolves the effective process-wide worker budget:
// CampaignWorkers, or one worker per CPU when unset.
func workerBudget() int {
	if CampaignWorkers > 0 {
		return CampaignWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// pool is one RunN fan-out wider than one worker, as the registry
// sees it.
type pool struct {
	n    int          // cells
	cap  int          // most goroutines working in the pool at once
	run  func(i int)  // runs cell i into its result slot
	next atomic.Int64 // next unclaimed cell
	left atomic.Int64 // cells not yet finished
	busy int          // goroutines working in the pool; guarded by sched.mu
}

// sched is the process-wide registry: the open pools, oldest first,
// and the helper goroutines running across all of them.
var sched struct {
	mu      sync.Mutex
	wake    sync.Cond // a pool opened, gained room or finished
	open    []*pool
	helpers int
}

func init() { sched.wake.L = &sched.mu }

// claim reserves the next unclaimed cell, or returns false when the
// pool is drained.
func (p *pool) claim() (int, bool) {
	i := int(p.next.Add(1)) - 1
	return i, i < p.n
}

// runCell runs claimed cell i and wakes the pool's caller if it was
// the last one to finish.
func (p *pool) runCell(i int) {
	p.run(i)
	if p.left.Add(-1) == 0 {
		sched.mu.Lock()
		sched.wake.Broadcast()
		sched.mu.Unlock()
	}
}

// drain runs cells of p until every one is claimed.
func (p *pool) drain() {
	for i, ok := p.claim(); ok; i, ok = p.claim() {
		p.runCell(i)
	}
}

// joinable returns the newest open pool with an unclaimed cell and
// room under its cap. A pool is not joined while more helpers run
// than its own budget allows, so a helper left over from a wider pool
// cannot widen a narrower one. sched.mu must be held.
func joinable() *pool {
	for k := len(sched.open) - 1; k >= 0; k-- {
		if p := sched.open[k]; p.busy < p.cap && sched.helpers < p.cap && p.next.Load() < int64(p.n) {
			return p
		}
	}
	return nil
}

// joinOne lends the calling goroutine to p for one cell. sched.mu
// must be held; it is released while the cell runs.
func joinOne(p *pool) {
	p.busy++
	sched.mu.Unlock()
	if i, ok := p.claim(); ok {
		p.runCell(i)
	}
	sched.mu.Lock()
	p.busy--
	if p.next.Load() < int64(p.n) {
		sched.wake.Broadcast()
	}
}

// helper drains p, then joins open pools until none has work for it.
// It gives its budget slot back under the same lock that found
// nothing to join, so a pool opening meanwhile either is joined or
// finds the slot free for a helper of its own.
func helper(p *pool) {
	p.drain()
	sched.mu.Lock()
	p.busy--
	for q := joinable(); q != nil; q = joinable() {
		joinOne(q)
	}
	sched.helpers--
	sched.mu.Unlock()
}

// RunN executes fn for every index in [0, n) on a bounded worker pool
// and returns the results in index order. workers caps this call's
// fan-out explicitly; workers <= 0 defers to the shared budget
// (CampaignWorkers, default one per CPU). The calling goroutine
// always works too. A pool capped at one worker is exactly a
// sequential loop on the caller and is never joined; a wider one
// spawns helpers while the process-wide budget has room and is joined
// by idle goroutines of other pools up to its cap, and its caller,
// once its own cells are all claimed, works on other open pools until
// its last cell finishes (see the registry above). fn must derive
// everything from its index (see the determinism contract above);
// RunN guarantees fn(i)'s result lands in slot i regardless of
// scheduling.
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
	if budget <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	p := &pool{n: n, cap: budget, run: func(i int) { out[i] = fn(i) }, busy: 1}
	p.left.Store(int64(n))
	sched.mu.Lock()
	for p.busy < budget && sched.helpers < budget-1 {
		sched.helpers++
		p.busy++
		go helper(p)
	}
	sched.open = append(sched.open, p)
	sched.wake.Broadcast()
	sched.mu.Unlock()

	p.drain()
	sched.mu.Lock()
	p.busy--
	for p.left.Load() > 0 {
		if q := joinable(); q != nil {
			joinOne(q)
		} else {
			sched.wake.Wait()
		}
	}
	closePool(p)
	sched.mu.Unlock()
	return out
}

// closePool removes p from the registry, clearing the vacated tail
// slot so the registry keeps no finished pool (and its results)
// reachable. sched.mu must be held.
func closePool(p *pool) {
	for k, q := range sched.open {
		if q == p {
			last := len(sched.open) - 1
			copy(sched.open[k:], sched.open[k+1:])
			sched.open[last] = nil
			sched.open = sched.open[:last]
			return
		}
	}
}

// RunEach is RunN for cells evaluated for effect only (each cell
// writing its own disjoint output, e.g. distinct struct fields).
func RunEach(n, workers int, fn func(i int)) {
	RunN(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}
