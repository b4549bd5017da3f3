package client

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/compressor"
	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzPlanFile pins planning against the content form: for any
// profile, kind, size and seed, planning a descriptor must produce
// exactly the plan that planning its generated bytes does — same
// units, same wire sizes, same dedup accounting. A descriptor may skip
// generation entirely (Cloud Drive) or resolve through the keyed size
// cache; neither may change a planned byte. The file is then edited by
// a 100 kB insert at off, and the spliced content Folder.InsertAt
// makes must plan exactly like its bytes too, both on fresh planners
// and on planners that saw the same first revision (dedup store, delta
// signatures): over compressible kinds, a chunk keyed by the base's
// window although it reaches the splice would change a wire size. A
// second insert, of 10 kB at off/2, makes a third revision that every
// planner delta-encodes against the one it planned before: spliced
// content on one side, its bytes on the other. A size above maxSize
// and an offset above the size wrap into range. The committed corpus
// holds 8 random trials per profile, sizes up to 6 MB, so chunk
// boundaries are crossed.
func FuzzPlanFile(f *testing.F) {
	const maxSize = 6 << 20
	profiles := Profiles()
	f.Fuzz(func(t *testing.T, profile, kind uint8, size uint32, seed int64, off uint32) {
		if size > maxSize {
			size %= maxSize + 1
		}
		if off > size {
			off %= size + 1
		}
		p := profiles[int(profile)%len(profiles)]
		k := workload.Kinds[int(kind)%len(workload.Kinds)]
		d := workload.Describe(sim.NewRNG(seed), k, int64(size))

		lazyPl := newPlanner(p, dedup.NewStore())
		lazy := lazyPl.PlanFile("f.bin", workload.DescriptorContent(d))
		eagerPl := newPlanner(p, dedup.NewStore())
		eager := eagerPl.PlanFile("f.bin", workload.BytesContent(workload.DescriptorContent(d).Bytes()))
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("%s %v size=%d seed=%d: lazy plan differs\n lazy  %+v\n eager %+v",
				p.Service, k, size, seed, lazy, eager)
		}

		folder := workload.NewFolder()
		folder.CreateLazy(time.Time{}, "f.bin", d)
		folder.InsertAt(time.Time{}, "f.bin", int64(off), workload.Generate(sim.NewRNG(seed+1), k, 100<<10))
		file, _ := folder.Get("f.bin")
		edited := file.Content().Bytes()
		// Fresh planners size chunks before the splice through the
		// base's keys; planners that saw the first revision
		// delta-encode against it first.
		fresh := [2]*planner{newPlanner(p, dedup.NewStore()), newPlanner(p, dedup.NewStore())}
		pairs := [][2]*planner{fresh, {lazyPl, eagerPl}}
		for _, pls := range pairs {
			spliced := pls[0].PlanFile("f.bin", file.Content())
			eager := pls[1].PlanFile("f.bin", workload.BytesContent(edited))
			if !reflect.DeepEqual(spliced, eager) {
				t.Fatalf("%s %v size=%d seed=%d insert at %d, fresh=%v: spliced plan differs\n spliced %+v\n eager   %+v",
					p.Service, k, size, seed, off, pls == fresh, spliced, eager)
			}
		}

		folder.InsertAt(time.Time{}, "f.bin", int64(off)/2, workload.Generate(sim.NewRNG(seed+2), k, 10<<10))
		third := file.Content()
		for _, pls := range pairs {
			afterSpliced := pls[0].PlanFile("f.bin", third)
			afterEager := pls[1].PlanFile("f.bin", third)
			if !reflect.DeepEqual(afterSpliced, afterEager) {
				t.Fatalf("%s %v size=%d seed=%d inserts at %d and %d, fresh=%v: third revision plans differ\n after spliced %+v\n after eager   %+v",
					p.Service, k, size, seed, off, off/2, pls == fresh, afterSpliced, afterEager)
			}
		}
	})
}

// TestLazyPlanSkipsGeneration proves the point of reading bytes only
// on demand: a capability-poor profile plans a descriptor-backed upload without
// materialising a single content byte. Allocation counting is the
// witness — a 32 MB materialisation cannot hide from AllocsPerRun.
func TestLazyPlanSkipsGeneration(t *testing.T) {
	p := CloudDrive() // no chunking, no compression, no dedup/delta/encryption
	pl := newPlanner(p, dedup.NewStore())
	d := workload.Describe(sim.NewRNG(1), workload.Binary, 32<<20) // 32 MB
	allocs := testing.AllocsPerRun(10, func() {
		plan := pl.PlanFile("huge.bin", workload.DescriptorContent(d))
		if len(plan.Units) != 1 || plan.Units[0] != 32<<20 {
			t.Fatalf("lazy plan wrong: %+v", plan)
		}
	})
	// One unit slice per plan; a 32 MB materialisation would show up
	// as thousands of page-sized allocations worth of bytes.
	if allocs > 4 {
		t.Errorf("lazy planning allocated %v objects per plan; content was materialised", allocs)
	}
}

// TestSplicedPlanSkipsGeneration: an edited generated file plans
// without its bytes too. Cloud Drive plans a 10 MB file with an insert in
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
	if len(plan.Units) != 1 || plan.Units[0] != 10<<20+4 {
		t.Fatalf("spliced plan wrong: %+v", plan)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("planning a 10 MB spliced file allocated %d bytes: content was materialised", got)
	}
}

// TestFixedChunkLazyBoundaries pins the fixed chunk geometry at
// awkward sizes: chunker.Fixed's lengths, and the plan every content
// form gets from them. With compression off, a fixed-chunk profile's
// units are exactly the chunk lengths, planned from the size alone.
func TestFixedChunkLazyBoundaries(t *testing.T) {
	p := GoogleDrive() // 8 MB fixed chunks
	p.Compression = compressor.None
	const c = 8 << 20
	for _, tc := range []struct {
		size int64
		want []int64
	}{
		{0, nil},
		{1, []int64{1}},
		{c - 1, []int64{c - 1}},
		{c, []int64{c}},
		{c + 1, []int64{c, 1}},
		{3*c - 1, []int64{c, c, c - 1}},
		{3 * c, []int64{c, c, c}},
		{3*c + 1, []int64{c, c, c, 1}},
	} {
		if got := chunker.Fixed(nil, tc.size, c); !slices.Equal(got, tc.want) {
			t.Errorf("size %d: chunker.Fixed = %v, want %v", tc.size, got, tc.want)
		}
		d := workload.Describe(sim.NewRNG(tc.size), workload.Binary, tc.size)
		plan := newPlanner(p, dedup.NewStore()).PlanFile("f.bin", workload.DescriptorContent(d))
		if !slices.Equal(plan.Units, tc.want) {
			t.Errorf("size %d: planned units %v, want %v", tc.size, plan.Units, tc.want)
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
