package client

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dedup"
	"repro/internal/workload"
)

// benchFiles builds the 100x10 kB planning workload.
func benchFiles(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	files := make([][]byte, 100)
	for i := range files {
		files[i] = make([]byte, 10_000)
		rng.Read(files[i])
	}
	return files
}

// BenchmarkPlanFile plans the paper's 100x10 kB batch with every
// profile: capability-poor clients (Cloud Drive) should spend nothing
// on hashing or signatures, capability-rich ones (Dropbox) reuse
// pooled compressor state and scratch buffers.
func BenchmarkPlanFile(b *testing.B) {
	files := benchFiles(3)
	for _, p := range Profiles() {
		b.Run(p.Service, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl := newPlanner(p, dedup.NewStore())
				for j, data := range files {
					pl.PlanFile(fmt.Sprintf("f%03d", j), workload.BytesContent(data))
				}
			}
		})
	}
}

// BenchmarkPlanFileRevision exercises the delta-encoding path: plan a
// file, mutate a slice of it, and re-plan it, signing the previous
// revision's chunk that the mutation touched.
func BenchmarkPlanFileRevision(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<20)
	rng.Read(data)
	rev := append([]byte(nil), data...)
	rng.Read(rev[500_000:520_000])
	p := Dropbox()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl := newPlanner(p, dedup.NewStore())
		pl.PlanFile("doc", workload.BytesContent(data))
		pl.PlanFile("doc", workload.BytesContent(rev))
	}
}
