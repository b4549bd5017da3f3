package client

import (
	"testing"

	"repro/internal/dedup"
	"repro/internal/goldenfile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestGoldenUploadPlans pins the planner end to end for every profile
// over descriptor-backed content: unit counts, wire bytes and dedup
// savings for a mixed batch (binary stress files, compressible text, a
// fake JPEG that defeats smart compression, and an exact replica that
// must dedup where the capability exists). Values live in
// testdata/golden_plans.json, regenerated for the descriptor pipeline
// by scripts/regen-golden.sh; within an engine generation they must
// reproduce bit for bit across lazy and materialised planning paths.
func TestGoldenUploadPlans(t *testing.T) {
	type plannedFile struct {
		Path         string
		FileBytes    int64
		Units        []int64 // wire bytes per transfer unit
		DedupSkipped int64
	}
	type profilePlans struct {
		Service string
		Files   []plannedFile
	}

	rng := sim.NewRNG(1234)
	contents := []struct {
		path string
		c    workload.Content
	}{
		{"bin-100k.bin", workload.DescriptorContent(workload.Describe(rng.Fork(1), workload.Binary, 100_000))},
		{"text-1m.txt", workload.DescriptorContent(workload.Describe(rng.Fork(2), workload.Text, 1<<20))},
		{"fake-5m.jpg", workload.DescriptorContent(workload.Describe(rng.Fork(3), workload.FakeJPEG, 5<<20))},
		// Exact replica of the first file: dedup-capable profiles skip it.
		{"replica.bin", workload.DescriptorContent(workload.Describe(rng.Fork(1), workload.Binary, 100_000))},
	}

	var got []profilePlans
	for _, p := range Profiles() {
		pl := newPlanner(p, dedup.NewStore())
		pp := profilePlans{Service: p.Service}
		for _, f := range contents {
			plan := pl.PlanFile(f.path, f.c)
			pf := plannedFile{Path: f.path, FileBytes: plan.FileBytes, DedupSkipped: plan.DedupSkipped}
			pf.Units = plan.Units
			pp.Files = append(pp.Files, pf)
		}
		got = append(got, pp)
	}
	goldenfile.Check(t, "testdata/golden_plans.json", got)
}
