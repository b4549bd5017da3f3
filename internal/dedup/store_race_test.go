package dedup

import (
	"sync"
	"testing"
)

// TestStoreConcurrentStress hammers one store from many goroutines
// mixing every operation clients and the fleet perform concurrently —
// PutHashed, ClaimBatchRef, Size and the aggregated counter
// reads. CI's -race job (go test -race ./internal/...) runs this with
// the race detector on; the final-state assertions below catch lost
// updates that a data race could cause even when the detector is off.
func TestStoreConcurrentStress(t *testing.T) {
	const (
		workers       = 16
		opsPerWorker  = 2000
		sharedHashes  = 128 // contended: every worker touches these
		privatePerGor = 64  // uncontended: worker-unique chunks
	)
	shared := randomHashes(101, sharedHashes)

	for _, shards := range []int{1, 64} {
		s := NewStoreSharded(shards)
		// refs0[i] is worker 0's ref from its claim at op i (case 2).
		refs0 := make([]ChunkRef, opsPerWorker)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				private := randomHashes(int64(1000+w), privatePerGor)
				for i := 0; i < opsPerWorker; i++ {
					h := shared[(i*7+w)%sharedHashes]
					switch i % 5 {
					case 0:
						s.PutHashed(h, 100)
					case 1:
						s.Size(h)
						s.PutHashed(private[i%privatePerGor], 10)
					case 2:
						// Claims from distinct (at, user) pairs; the
						// winner must be the minimum regardless of
						// interleaving. A single-chunk batch is the
						// degenerate shard group, so it contends with
						// the puts above on the same hashes. Worker 0
						// keeps its refs; WonBy is a lock-free
						// resolve-phase read, legal only after claim
						// traffic has quiesced, so they are read after
						// the barrier.
						hb := [1]Hash{h}
						sb := [1]int64{100}
						var ref [1]ChunkRef
						s.ClaimBatchRef(hb[:], sb[:], int64(w*opsPerWorker+i), int64(w), ref[:])
						if w == 0 {
							refs0[i] = ref[0]
						}
					case 3:
						// A later claim of two chunks: its instants sit
						// above every case-2 instant, so it never
						// displaces the minimum the final assertions
						// predict.
						hb := [2]Hash{h, h}
						sb := [2]int64{100, 100}
						var refs [2]ChunkRef
						s.ClaimBatchRef(hb[:], sb[:], int64((workers+w)*opsPerWorker+i), int64(w), refs[:])
						s.Size(h)
					case 4:
						// Aggregated counter reads overlapping writers.
						s.StoredBytes()
						s.UniqueChunks()
						s.Hits()
					}
				}
			}(w)
		}
		wg.Wait()

		wantUnique := sharedHashes + workers*privatePerGor
		if got := s.UniqueChunks(); got != wantUnique {
			t.Fatalf("shards=%d: UniqueChunks = %d, want %d (lost updates?)", shards, got, wantUnique)
		}
		wantBytes := int64(sharedHashes*100 + workers*privatePerGor*10)
		if got := s.StoredBytes(); got != wantBytes {
			t.Fatalf("shards=%d: StoredBytes = %d, want %d", shards, got, wantBytes)
		}
		if s.Puts() != int64(wantUnique) {
			t.Fatalf("shards=%d: Puts = %d, want %d", shards, s.Puts(), wantUnique)
		}
		// Every PutHashed call and claimed chunk either stored or
		// hit; the stress loop issues exactly 5 store-ops per 5
		// iterations (cases 0, 1, 2 one each; case 3 two).
		wantOps := int64(workers * opsPerWorker)
		if got := s.Puts() + s.Hits(); got != wantOps {
			t.Fatalf("shards=%d: Puts+Hits = %d, want %d", shards, got, wantOps)
		}
		// The winning claim of each shared chunk is the global
		// (at, user) minimum over all claimants of that hash: worker
		// w claims hash (i*7+w)%sharedHashes at instant w*ops+i, so
		// the minimal instant for every hash belongs to worker 0.
		for idx, h := range shared {
			// Worker 0 claims hash j at instants i where (i*7)%128 == j
			// and i%5 == 2; find the smallest such i.
			won := false
			for i := 0; i < opsPerWorker; i++ {
				if i%5 == 2 && (i*7)%sharedHashes == idx {
					won = refs0[i].Hash() == h && refs0[i].WonBy(int64(i), 0)
					break
				}
			}
			if !won {
				t.Fatalf("shards=%d: shared hash %d not won by its minimal claimant", shards, idx)
			}
		}
	}
}
