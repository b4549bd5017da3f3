package client

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestLazyPlanMatchesMaterializedPlan pins the descriptor fast path
// bit for bit against the materialised path: for every profile and a
// randomized sweep of kinds and sizes, planning DescriptorContent must
// produce exactly the plan that planning the pre-generated bytes
// would — same units, same wire sizes, same commit flags, same dedup
// accounting. The lazy path may skip generation entirely (Cloud
// Drive) or resolve through the keyed size cache; neither may change
// a planned byte. Each file is then edited by a random insert, and the
// spliced content Folder.InsertAt makes must plan exactly like its
// bytes too: over compressible kinds, a chunk keyed by the base's
// window although it reaches the splice would change a wire size.
func TestLazyPlanMatchesMaterializedPlan(t *testing.T) {
	meta := rand.New(rand.NewSource(31))
	kinds := []workload.Kind{workload.Binary, workload.Text, workload.FakeJPEG, workload.PixelImage}
	for _, p := range Profiles() {
		for trial := 0; trial < 8; trial++ {
			kind := kinds[meta.Intn(len(kinds))]
			size := int64(meta.Intn(6 << 20)) // 0 .. 6 MB: crosses chunk boundaries
			seed := meta.Int63()
			d := workload.Describe(sim.NewRNG(seed), kind, size)

			lazyPl := newPlanner(p, dedup.NewStore())
			lazy := lazyPl.PlanFile("f.bin", workload.DescriptorContent(d))

			eagerPl := newPlanner(p, dedup.NewStore())
			eager := eagerPl.PlanFile("f.bin", workload.BytesContent(workload.DescriptorContent(d).Bytes()))

			if !reflect.DeepEqual(lazy, eager) {
				t.Fatalf("%s %v size=%d seed=%d: lazy plan differs\n lazy  %+v\n eager %+v",
					p.Service, kind, size, seed, lazy, eager)
			}

			off := meta.Int63n(size + 1)
			f := workload.NewFolder()
			f.CreateLazy(time.Time{}, "f.bin", d)
			f.InsertAt(time.Time{}, "f.bin", off, workload.Generate(sim.NewRNG(seed+1), kind, 100<<10))
			file, _ := f.Get("f.bin")
			spliced := lazyPl.PlanFile("f.bin", file.Content())
			eager = eagerPl.PlanFile("f.bin", workload.BytesContent(file.Content().Bytes()))
			if !reflect.DeepEqual(spliced, eager) {
				t.Fatalf("%s %v size=%d seed=%d insert at %d: spliced plan differs\n spliced %+v\n eager   %+v",
					p.Service, kind, size, seed, off, spliced, eager)
			}
		}
	}
}

// TestLazyPlanSkipsGeneration proves the point of the lazy path: a
// capability-poor profile plans a descriptor-backed upload without
// materialising a single content byte. Allocation counting is the
// witness — a 32 MB materialisation cannot hide from AllocsPerRun.
func TestLazyPlanSkipsGeneration(t *testing.T) {
	p := CloudDrive() // no chunking, no compression, no dedup/delta/encryption
	pl := newPlanner(p, dedup.NewStore())
	d := workload.Describe(sim.NewRNG(1), workload.Binary, 32<<20) // 32 MB
	allocs := testing.AllocsPerRun(10, func() {
		plan := pl.PlanFile("huge.bin", workload.DescriptorContent(d))
		if len(plan.Units) != 1 || plan.Units[0].Bytes != 32<<20 {
			t.Fatalf("lazy plan wrong: %+v", plan)
		}
	})
	// One unit slice per plan; a 32 MB materialisation would show up
	// as thousands of page-sized allocations worth of bytes.
	if allocs > 4 {
		t.Errorf("lazy planning allocated %v objects per plan; content was materialised", allocs)
	}
}

// TestSplicedPlanSkipsGeneration: an edited generated file plans on
// the lazy path too. Cloud Drive plans a 10 MB file with an insert in
// the middle from its size alone, so planning it allocates nothing of
// the file's size. The GCs first empty the materialisation pool, so a
// generation could not hide in a recycled buffer.
func TestSplicedPlanSkipsGeneration(t *testing.T) {
	pl := newPlanner(CloudDrive(), dedup.NewStore())
	f := workload.NewFolder()
	f.CreateLazy(time.Time{}, "f.bin", workload.Describe(sim.NewRNG(1), workload.Binary, 10<<20))
	f.InsertAt(time.Time{}, "f.bin", 5<<20, []byte("edit"))
	file, _ := f.Get("f.bin")

	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan := pl.PlanFile("f.bin", file.Content())
	runtime.ReadMemStats(&after)
	if len(plan.Units) != 1 || plan.Units[0].Bytes != 10<<20+4 {
		t.Fatalf("spliced plan wrong: %+v", plan)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("planning a 10 MB spliced file allocated %d bytes: content was materialised", got)
	}
}

// TestFixedChunkLazyBoundaries pins the lazy path's chunk geometry
// against the real chunker for fixed-chunk profiles at awkward sizes.
func TestFixedChunkLazyBoundaries(t *testing.T) {
	p := GoogleDrive() // 8 MB fixed chunks, smart compression
	for _, size := range []int64{0, 1, 8 << 20, 8<<20 + 1, 24 << 20, 24<<20 - 1} {
		d := workload.Describe(sim.NewRNG(size), workload.Binary, size)
		lazy := newPlanner(p, dedup.NewStore()).PlanFile("f.bin", workload.DescriptorContent(d))
		eager := newPlanner(p, dedup.NewStore()).PlanFile("f.bin", workload.BytesContent(workload.DescriptorContent(d).Bytes()))
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("size %d: lazy chunk geometry differs\n lazy  %+v\n eager %+v", size, lazy, eager)
		}
	}
}

// TestSplicedPlanKeysOnlyBeforeTheSplice: Google Drive's first 8 MB
// chunk of a 10 MB text file, after 100 kB went in at 9 MB (the chunk
// ends before the splice and takes the base's key) or at 1 MB (it
// reaches the splice and must not), plans exactly like the same bytes.
// Text deflates to a content-dependent size, so a chunk keyed by the
// base's window although it covers the insert would change a wire
// size; the same edit of random bytes would not show it.
func TestSplicedPlanKeysOnlyBeforeTheSplice(t *testing.T) {
	p := GoogleDrive() // 8 MB fixed chunks, smart compression
	d := workload.Describe(sim.NewRNG(3), workload.Text, 10<<20)
	insert := workload.Generate(sim.NewRNG(4), workload.Binary, 100<<10)
	for _, off := range []int64{9 << 20, 1 << 20} {
		f := workload.NewFolder()
		f.CreateLazy(time.Time{}, "f.txt", d)
		f.InsertAt(time.Time{}, "f.txt", off, insert)
		file, _ := f.Get("f.txt")

		splicedPl := newPlanner(p, dedup.NewStore())
		splicedPl.PlanFile("f.txt", workload.DescriptorContent(d))
		spliced := splicedPl.PlanFile("f.txt", file.Content())
		eager := newPlanner(p, dedup.NewStore()).PlanFile("f.txt", workload.BytesContent(file.Content().Bytes()))
		if !reflect.DeepEqual(spliced, eager) {
			t.Fatalf("insert at %d: spliced plan differs\n spliced %+v\n eager   %+v", off, spliced, eager)
		}
	}
}
