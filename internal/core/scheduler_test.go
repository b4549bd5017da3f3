package core

import (
	"reflect"
	"sync/atomic"
	"testing"

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

func TestRunNNestedSharesBudget(t *testing.T) {
	// A fan-out whose cells fan out again must complete correctly
	// (inner pools fall back to inline execution when the shared
	// budget is spent — never deadlock) and must not exceed the
	// budget's goroutine count.
	var peak, active atomic.Int64
	outer := RunN(6, 3, func(i int) int {
		cur := active.Add(1)
		defer active.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inner := RunN(6, 3, func(j int) int { return i*6 + j })
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum
	})
	want := 0
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want += i*6 + j
		}
	}
	got := 0
	for _, v := range outer {
		got += v
	}
	if got != want {
		t.Fatalf("nested sum = %d, want %d", got, want)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("outer cells ran %d-wide, want <= budget 3", p)
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
	var seq []LocationCell
	withWorkers(t, 1, func() { seq = LocationStudy(batch, vantages, 63) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par []LocationCell
		withWorkers(t, w, func() { par = LocationStudy(batch, vantages, 63) })
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
	withWorkers(t, 1, func() { seq = DetectCapabilities(p, 7) })
	for _, w := range equivalenceWorkerCounts[1:] {
		var par Capabilities
		withWorkers(t, w, func() { par = DetectCapabilities(p, 7) })
		if seq != par {
			t.Errorf("workers=%d: DetectCapabilities differs from sequential\n seq %+v\n par %+v", w, seq, par)
		}
	}
	// The flattened service x detector matrix must agree with the
	// single-service path.
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
