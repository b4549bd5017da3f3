package dedup

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

// putBytes stores data under its content address, as the deduplicating
// client does, and returns the address and the dedup verdict.
func putBytes(s *Store, data []byte) (Hash, bool) {
	h := HashBytes(data)
	return h, s.PutHashed(h, int64(len(data)))
}

func TestPutAndHas(t *testing.T) {
	s := NewStore()
	data := []byte("hello chunk")
	h := HashBytes(data)
	if s.Size(h) != 0 {
		t.Fatal("empty store has chunk")
	}
	if !s.PutHashed(h, int64(len(data))) {
		t.Fatal("PutHashed of a new chunk reported a hit")
	}
	if s.Size(h) != int64(len(data)) {
		t.Fatal("chunk not stored")
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewStore()
	data := []byte("dup me")
	putBytes(s, data)
	_, isNew := putBytes(s, data)
	if isNew {
		t.Fatal("second put claimed new")
	}
	if s.UniqueChunks() != 1 || s.StoredBytes() != int64(len(data)) {
		t.Fatalf("store state: %d chunks, %d bytes", s.UniqueChunks(), s.StoredBytes())
	}
	if s.Hits() != 1 {
		t.Fatalf("hits = %d", s.Hits())
	}
}

func TestStoreSurvivesManifestDelete(t *testing.T) {
	// The paper's Sect. 4.3 step iv: delete a file locally, restore
	// it, and the chunks must still dedup against the server store,
	// which a client-side delete never reaches.
	s := NewStore()
	data := []byte("file content that will be deleted and restored")
	putBytes(s, data)
	// Restore: the client re-hashes and finds the chunk server-side.
	if s.Size(HashBytes(data)) != int64(len(data)) {
		t.Fatal("server store lost the chunk after local delete")
	}
	if _, isNew := putBytes(s, data); isNew {
		t.Fatal("restore re-uploaded existing content")
	}
}

func TestHashCollisionFreeOnDistinctContent(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(n uint8) bool {
		a := workload.Generate(rng, workload.Binary, int64(n)+1)
		b := workload.Generate(rng, workload.Binary, int64(n)+1)
		if string(a) == string(b) {
			return true
		}
		return HashBytes(a) != HashBytes(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStorePutReturnsStableHash(t *testing.T) {
	s := NewStore()
	data := []byte("stable")
	h1, _ := putBytes(s, data)
	h2, _ := putBytes(s, data)
	if h1 != h2 || h1 != HashBytes(data) {
		t.Fatal("hash not stable")
	}
	if h1.String() == "" || len(h1.String()) != 64 {
		t.Fatal("hex form wrong")
	}
}
