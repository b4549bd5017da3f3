package dedup_test

import (
	"testing"

	"repro/internal/dedup"
	"repro/internal/sim"
)

// BenchmarkStoreClaim times one fleet-day-sized claim pass against a
// fresh pre-sized store: 1M single-chunk ClaimBatchRef calls (a fleet
// session's shard groups are mostly one chunk long), 31% of them on a
// chunk already claimed — fleet_day's hit ratio — drawn uniformly from
// the chunks seen so far. It uses only the exported API, so the same
// benchmark runs against any revision of the store.
func BenchmarkStoreClaim(b *testing.B) {
	const (
		claims   = 1 << 20
		hitRatio = 0.31
	)
	rng := sim.NewRNG(42)
	order := make([]int32, claims) // claim k offers chunk order[k]
	unique := 0
	for k := range order {
		if unique > 0 && rng.Float64() < hitRatio {
			order[k] = int32(rng.Intn(unique))
		} else {
			order[k] = int32(unique)
			unique++
		}
	}
	hs := make([]dedup.Hash, unique)
	for i := range hs {
		rng.Fill(hs[i][:])
	}
	var size [1]int64
	var ref [1]dedup.ChunkRef
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		s := dedup.NewStoreShardedSized(dedup.DefaultShards, unique)
		for k, i := range order {
			size[0] = int64(i&1023) + 1
			s.ClaimBatchRef(hs[i:i+1], size[:], int64(k), int64(k&1023), ref[:])
		}
		if s.Puts() != int64(unique) {
			b.Fatalf("puts = %d, want %d", s.Puts(), unique)
		}
	}
	b.ReportMetric(float64(claims), "claims/op")
}
