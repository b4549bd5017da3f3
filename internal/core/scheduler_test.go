package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

// withWorkers runs fn with CampaignWorkers pinned to w, restoring the
// previous knob afterwards.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	old := CampaignWorkers
	CampaignWorkers = w
	defer func() { CampaignWorkers = old }()
	fn()
}

// equivalenceWorkerCounts are the worker counts every lifted layer is
// pinned at: forced-sequential, a small pool, and a pool larger than
// most cell counts.
var equivalenceWorkerCounts = []int{1, 2, 8}

func TestRunNZeroCells(t *testing.T) {
	calls := 0
	if out := RunN(0, 4, func(i int) int { calls++; return i }); len(out) != 0 {
		t.Fatalf("RunN(0) returned %d results", len(out))
	}
	if out := RunN(-3, 4, func(i int) int { calls++; return i }); len(out) != 0 {
		t.Fatalf("RunN(-3) returned %d results", len(out))
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for empty index spaces", calls)
	}
}

func TestRunNWorkersExceedCells(t *testing.T) {
	out := RunN(3, 64, func(i int) int { return i * i })
	if want := []int{0, 1, 4}; !reflect.DeepEqual(out, want) {
		t.Fatalf("RunN(3, 64) = %v, want %v", out, want)
	}
}

func TestRunNResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		out := RunN(100, workers, func(i int) int { return i })
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: slot %d holds %d", workers, i, v)
			}
		}
	}
}

func TestRunNEachCellOnce(t *testing.T) {
	var counts [50]atomic.Int64
	RunEach(len(counts), 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

// schedTimeout bounds every wait in the scheduler tests, so a
// scheduler that deadlocks or never wakes a waiter fails the test
// instead of hanging the suite. It is host time: these tests exercise
// goroutine scheduling, not simulated time.
const schedTimeout = 10 * time.Second

// within runs fn on its own goroutine and fails the test if it has
// not returned after schedTimeout.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(schedTimeout): //simlint:allow walltime -- host-side test timeout, not simulated time
		t.Fatalf("RunN did not return within %v", schedTimeout)
	}
}

// peakCounter tracks how many cells run at once and the most seen.
// When the peak first reaches want it closes reached.
type peakCounter struct {
	active, peak atomic.Int64
	want         int64
	reached      chan struct{}
}

func newPeakCounter(want int64) *peakCounter {
	return &peakCounter{want: want, reached: make(chan struct{})}
}

func (c *peakCounter) enter() {
	cur := c.active.Add(1)
	for p := c.peak.Load(); cur > p; p = c.peak.Load() {
		if c.peak.CompareAndSwap(p, cur) {
			if p < c.want && cur >= c.want {
				close(c.reached)
			}
			break
		}
	}
}

func (c *peakCounter) exit() { c.active.Add(-1) }

// assertRegistryEmpty checks that no pool is left open and that the
// registry's backing array keeps no finished pool reachable. It only
// reports errors, so it may run on a goroutine other than the test's.
func assertRegistryEmpty(t *testing.T) {
	t.Helper()
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if len(sched.open) != 0 {
		t.Errorf("%d pools still open after RunN returned", len(sched.open))
	}
	for k, p := range sched.open[:cap(sched.open)] {
		if p != nil {
			t.Errorf("registry slot %d still references a closed pool", k)
			return
		}
	}
}

func TestRunNIdleWorkerJoinsNestedPool(t *testing.T) {
	// The outer pool holds the whole budget of 2, so the inner pool of
	// cell 1 cannot spawn a helper of its own. The worker freed by
	// cell 0 must join it, so two inner cells overlap. Each inner cell
	// waits for that overlap, or gives up once the timer fires.
	inner := newPeakCounter(2)
	giveUp := make(chan struct{})
	timer := time.AfterFunc(schedTimeout/2, func() { close(giveUp) }) //simlint:allow walltime -- host-side test timeout, not simulated time
	defer timer.Stop()
	withWorkers(t, 2, func() {
		within(t, func() {
			RunEach(2, 0, func(i int) {
				if i == 0 {
					return
				}
				RunEach(4, 0, func(int) {
					inner.enter()
					defer inner.exit()
					select {
					case <-inner.reached:
					case <-giveUp:
					}
				})
			})
		})
	})
	if p := inner.peak.Load(); p != 2 {
		t.Fatalf("inner pool ran %d-wide, want 2 (the idle worker joins it)", p)
	}
	assertRegistryEmpty(t)
}

func TestRunNSequentialPoolNeverJoined(t *testing.T) {
	// An inner RunN(n, 1) is a plain loop on its caller: it is never
	// published, so the worker left idle by cell 0 cannot join it, and
	// its cells run one at a time in index order.
	inner := newPeakCounter(2)
	var order []int
	var published atomic.Bool
	withWorkers(t, 2, func() {
		within(t, func() {
			RunEach(2, 0, func(i int) {
				if i == 0 {
					return
				}
				RunEach(4, 1, func(j int) {
					inner.enter()
					defer inner.exit()
					order = append(order, j)
					sched.mu.Lock()
					for _, p := range sched.open {
						if p.cap < 2 {
							published.Store(true)
						}
					}
					sched.mu.Unlock()
					runtime.Gosched()
				})
			})
		})
	})
	if p := inner.peak.Load(); p != 1 {
		t.Fatalf("RunN(4, 1) ran %d-wide, want 1", p)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("RunN(4, 1) ran cells in order %v, want index order", order)
	}
	if published.Load() {
		t.Fatal("RunN(4, 1) was published for joining")
	}
	assertRegistryEmpty(t)
}

func TestRunNNestedSharesBudget(t *testing.T) {
	// A fan-out whose cells fan out again must complete correctly
	// (inner pools that find the shared budget spent start on their
	// caller alone and are joined by idle workers — never deadlock).
	// However the workers move between pools, no more outer or leaf
	// cells run at once than the budget allows, no helper beyond it
	// exists, and every pool leaves the registry when RunN returns.
	const budget = 3
	outerCells, leaves := newPeakCounter(budget+1), newPeakCounter(budget+1)
	var overHelpers atomic.Bool
	within(t, func() {
		for round := 0; round < 20; round++ {
			outer := RunN(6, budget, func(i int) int {
				outerCells.enter()
				defer outerCells.exit()
				inner := RunN(6, budget, func(j int) int {
					leaves.enter()
					defer leaves.exit()
					sched.mu.Lock()
					if sched.helpers > budget-1 {
						overHelpers.Store(true)
					}
					sched.mu.Unlock()
					runtime.Gosched()
					return i*6 + j
				})
				sum := 0
				for _, v := range inner {
					sum += v
				}
				return sum
			})
			got := 0
			for _, v := range outer {
				got += v
			}
			if want := 36 * 35 / 2; got != want {
				t.Errorf("round %d: nested sum = %d, want %d", round, got, want)
			}
			assertRegistryEmpty(t)
		}
	})
	if p := outerCells.peak.Load(); p > budget {
		t.Fatalf("outer cells ran %d-wide, want <= budget %d", p, budget)
	}
	if p := leaves.peak.Load(); p > budget {
		t.Fatalf("%d leaf cells ran at once, want <= budget %d", p, budget)
	}
	if overHelpers.Load() {
		t.Fatalf("more than %d helpers ran at once", budget-1)
	}
}

// ---- parallel-vs-sequential golden equivalence per lifted layer ----

// fig6ForService is the single-profile Fig. 6 campaign.
func fig6ForService(p client.Profile, reps int, seed int64) Fig6Result {
	return Fig6Matrix([]client.Profile{p}, reps, seed)[0]
}

func TestFig6ForServiceParallelEquivalence(t *testing.T) {
	var seq Fig6Result
	withWorkers(t, 1, func() { seq = fig6ForService(client.CloudDrive(), 3, 42) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par Fig6Result
		withWorkers(t, w, func() { par = fig6ForService(client.CloudDrive(), 3, 42) })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: single-service Fig6Matrix differs from sequential\n seq %+v\n par %+v", w, seq, par)
		}
	}
}

func TestFig6MatrixMatchesPerService(t *testing.T) {
	profiles := []client.Profile{client.CloudDrive(), client.Wuala()}
	for _, w := range equivalenceWorkerCounts {
		withWorkers(t, w, func() {
			matrix := Fig6Matrix(profiles, 2, 42)
			if len(matrix) != len(profiles) {
				t.Fatalf("workers=%d: matrix has %d services", w, len(matrix))
			}
			for i, p := range profiles {
				single := fig6ForService(p, 2, 42)
				if !reflect.DeepEqual(matrix[i], single) {
					t.Errorf("workers=%d: matrix[%s] differs from its single-service run", w, p.Service)
				}
			}
		})
	}
}

func TestLocationStudyParallelEquivalence(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100 << 10, Kind: workload.Binary}
	sea, _ := VantageByName("SEA")
	vantages := []Vantage{Twente, sea}
	var seq []LocationSummary
	withWorkers(t, 1, func() { seq = LocationStudy(client.Profiles(), batch, vantages, 2, 63) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par []LocationSummary
		withWorkers(t, w, func() { par = LocationStudy(client.Profiles(), batch, vantages, 2, 63) })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: LocationStudy differs from sequential", w)
		}
	}
}

func TestFig4DeltaSeriesParallelEquivalence(t *testing.T) {
	sizes := []int64{100 << 10, 1 << 20, 2 << 20}
	var seq []VolumePoint
	withWorkers(t, 1, func() { seq = Fig4DeltaSeries(client.Dropbox(), ModRandom, sizes, added100k, 21) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par []VolumePoint
		withWorkers(t, w, func() { par = Fig4DeltaSeries(client.Dropbox(), ModRandom, sizes, added100k, 21) })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: Fig4DeltaSeries differs from sequential\n seq %v\n par %v", w, seq, par)
		}
	}
}

func TestFig5CompressionSeriesParallelEquivalence(t *testing.T) {
	sizes := []int64{100 << 10, 500 << 10, 1 << 20}
	var seq []VolumePoint
	withWorkers(t, 1, func() { seq = Fig5CompressionSeries(client.Dropbox(), workload.Text, sizes, 22) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par []VolumePoint
		withWorkers(t, w, func() { par = Fig5CompressionSeries(client.Dropbox(), workload.Text, sizes, 22) })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: Fig5CompressionSeries differs from sequential\n seq %v\n par %v", w, seq, par)
		}
	}
}

func TestDetectCapabilitiesParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full capability suite per worker count is long")
	}
	p := client.Dropbox()
	var seq Capabilities
	withWorkers(t, 1, func() { seq = DetectCapabilitiesAll([]client.Profile{p}, 7)[p.Service] })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par Capabilities
		withWorkers(t, w, func() { par = DetectCapabilitiesAll([]client.Profile{p}, 7)[p.Service] })
		if seq != par {
			t.Errorf("workers=%d: DetectCapabilitiesAll differs from sequential\n seq %+v\n par %+v", w, seq, par)
		}
	}
	// A multi-service run must agree with the single-service one.
	profiles := []client.Profile{client.Dropbox(), client.CloudDrive()}
	var all map[string]Capabilities
	withWorkers(t, 8, func() { all = DetectCapabilitiesAll(profiles, 7) })
	if all["dropbox"] != seq {
		t.Errorf("DetectCapabilitiesAll[dropbox] = %+v, want %+v", all["dropbox"], seq)
	}
	// Both dedup verdicts must come from one experiment: with the
	// dropbox profile at this seed both are positive.
	if !all["dropbox"].Dedup || !all["dropbox"].DedupAfterDelete {
		t.Errorf("dropbox dedup verdicts = %v/%v, want true/true",
			all["dropbox"].Dedup, all["dropbox"].DedupAfterDelete)
	}
}
