package core

import (
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/workload"
)

// This file regenerates every figure dataset of the paper. Each
// function returns plottable series; cmd/cloudbench renders them as
// text, CSV or ASCII charts. The bench targets in bench_test.go wrap
// these one-to-one.

// ModKind selects where the Fig. 4 modification lands in the file.
type ModKind int

const (
	// ModAppend adds content at the end of the file.
	ModAppend ModKind = iota
	// ModPrepend adds content at the beginning.
	ModPrepend
	// ModRandom inserts content at a random interior offset.
	ModRandom
)

// String names the modification for reports.
func (m ModKind) String() string {
	switch m {
	case ModAppend:
		return "append"
	case ModPrepend:
		return "prepend"
	default:
		return "random"
	}
}

// VolumePoint is one (file size, uploaded volume) point of Fig. 4 or
// Fig. 5.
type VolumePoint struct {
	FileSize int64
	Upload   int64
}

// Fig4DeltaSeries runs the delta-encoding test (Sect. 4.4) for one
// service: for each file size, synchronize a base file, modify it by
// inserting `added` bytes at the chosen position ("in all cases, the
// modified file replaces its old copy"), and measure the upload volume
// of the second synchronization. Cells stream: the measurement window
// opens at the modification instant — a quiet point 10 s after the
// base upload — so it is registered before any of its traffic exists
// and the base upload's packets are never retained.
func Fig4DeltaSeries(p client.Profile, mod ModKind, sizes []int64, added int64, seed int64) []VolumePoint {
	return sweepLargestFirst(sizes, func(i int) VolumePoint {
		size := sizes[i]
		tb := streamingTestbed(p, seed+int64(i)*101)
		start := tb.Settle()

		t0 := tb.Clock.Now()
		tb.Folder.CreateLazy(t0, "target.bin", workload.Describe(tb.RNG.Fork(1), workload.Binary, size))
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))

		t1 := tb.Clock.Now()
		tb.StartWindow(t1)
		chunk := workload.Generate(tb.RNG.Fork(2), workload.Binary, added)
		switch mod {
		case ModAppend:
			tb.Folder.Append(t1, "target.bin", chunk)
		case ModPrepend:
			tb.Folder.InsertAt(t1, "target.bin", 0, chunk)
		default:
			off := tb.RNG.Int63n(size)
			tb.Folder.InsertAt(t1, "target.bin", off, chunk)
		}
		res = tb.Client.SyncChanges(tb.Folder, t1.Add(-time.Millisecond))
		tb.Clock.AdvanceTo(res.Done)

		up := tb.AnalyzeWindow(t1, tb.StorageFilter(t1)).WireUp
		return VolumePoint{FileSize: size, Upload: up}
	})
}

// Fig5CompressionSeries runs the compression test (Sect. 4.5) for one
// service and file kind: upload files of increasing size and measure
// the transmitted volume.
func Fig5CompressionSeries(p client.Profile, kind workload.Kind, sizes []int64, seed int64) []VolumePoint {
	return sweepLargestFirst(sizes, func(i int) VolumePoint {
		size := sizes[i]
		tb := streamingTestbed(p, seed+int64(i)*103)
		start := tb.Settle()
		t0 := tb.Clock.Now()
		tb.StartWindow(t0)
		tb.Folder.CreateLazy(t0, "payload"+kind.Ext(),
			workload.Describe(tb.RNG.Fork(7), kind, size))
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done)
		up := tb.AnalyzeWindow(t0, tb.StorageFilter(t0)).WireUp
		return VolumePoint{FileSize: size, Upload: up}
	})
}

// sweepLargestFirst fans a size sweep out over RunN, dispatching the
// largest sizes first so the longest cells start early and the sweep
// does not end on one worker finishing a 10 MB cell alone. Cell i
// still computes and lands in slot i, so results (and the per-point
// seeds derived from i) are independent of the dispatch order.
func sweepLargestFirst(sizes []int64, cell func(i int) VolumePoint) []VolumePoint {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	out := make([]VolumePoint, len(sizes))
	RunEach(len(order), CampaignWorkers, func(k int) { out[order[k]] = cell(order[k]) })
	return out
}

// Fig4Sizes returns the paper's x-axes: up to 2 MB for the append
// case, up to 10 MB for the random-position case ("larger files are
// instead considered ... to highlight the combined effects with
// chunking and deduplication").
func Fig4Sizes(mod ModKind) []int64 {
	if mod == ModRandom {
		return []int64{1 << 20, 2 << 20, 4 << 20, 6 << 20, 8 << 20, 10 << 20}
	}
	return []int64{100 << 10, 500 << 10, 1 << 20, 1536 << 10, 2 << 20}
}

// Fig5Sizes returns the compression-test x-axis (100 kB to 2 MB).
func Fig5Sizes() []int64 {
	return []int64{100 << 10, 500 << 10, 1 << 20, 1536 << 10, 2 << 20}
}

// Fig6Result bundles the three panels of Fig. 6 for one service: per
// workload, the start-up, duration and overhead summaries.
type Fig6Result struct {
	Service   string
	Workloads []workload.Batch
	Summaries []Summary
}

// fig6Seed derives the seed of one (workload, repetition) cell of a
// service's Fig. 6 campaign — the derivation the sequential engine
// always used (per-workload base, campaignSeed per repetition).
func fig6Seed(seed int64, wi, rep int) int64 {
	return campaignSeed(seed+int64(wi)*100003, rep)
}

// Fig6Matrix runs the Fig. 6 campaign (four binary workloads, reps
// repetitions each, reps <= 0 meaning DefaultReps) for every profile,
// the whole service x workload x repetition matrix in one flat round
// on the shared pool — the entry point used by cmd/cloudbench.
func Fig6Matrix(profiles []client.Profile, reps int, seed int64) []Fig6Result {
	return fig6(profiles, campusHost, fixedRule(reps), VarianceReduction{}, seed)
}

// Fig6MatrixAdaptive is Fig6Matrix under a stopping rule: every
// (service, workload) cell runs its own sequential design, so
// low-variance cells release their budget early while noisy cells
// keep sampling up to the cap. Note the fig6Seed stream carries no
// service index, so common random numbers across services hold here
// with or without vr.CRN.
func Fig6MatrixAdaptive(profiles []client.Profile, rule StopRule, vr VarianceReduction, seed int64) []Fig6Result {
	return fig6(profiles, campusHost, rule.withDefaults(vr), vr, seed)
}

// fig6 is the Fig. 6 body: one cell per (service, workload), run from
// host under rule.
func fig6(profiles []client.Profile, host func() *netem.Host, rule StopRule, vr VarianceReduction, seed int64) []Fig6Result {
	batches := workload.StandardBenchmarks(workload.Binary)
	var cells []syncCell
	for _, p := range profiles {
		for wi, b := range batches {
			cells = append(cells, syncCell{p: p, batch: b, host: host, jitter: DefaultJitter,
				seed: func(rep int) int64 { return fig6Seed(seed, wi, rep) }})
		}
	}
	sums := summarizeCells(cells, rule, vr)
	out := make([]Fig6Result, len(profiles))
	for si, p := range profiles {
		lo, hi := si*len(batches), (si+1)*len(batches)
		out[si] = Fig6Result{Service: p.Service, Workloads: batches, Summaries: sums[lo:hi:hi]}
	}
	return out
}

// fig4SingleBatch is the 1x1MB convenience workload used by several
// single-file studies.
func fig4SingleBatch() workload.Batch {
	return workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
}
