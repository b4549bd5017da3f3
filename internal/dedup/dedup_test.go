package dedup

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPutAndHas(t *testing.T) {
	s := NewStore()
	data := []byte("hello chunk")
	h := HashBytes(data)
	if s.Size(h) != 0 {
		t.Fatal("empty store has chunk")
	}
	got, isNew := s.Put(data)
	if got != h || !isNew {
		t.Fatalf("Put = %v,%v", got, isNew)
	}
	if s.Size(h) != int64(len(data)) {
		t.Fatal("chunk not stored")
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewStore()
	data := []byte("dup me")
	s.Put(data)
	_, isNew := s.Put(data)
	if isNew {
		t.Fatal("second Put claimed new")
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
	// it, and the chunks must still dedup against the server store.
	s := NewStore()
	m := NewManifest()
	data := []byte("file content that will be deleted and restored")
	h, _ := s.Put(data)
	m.Set("docs/a.bin", []Hash{h})

	m.Delete("docs/a.bin")
	if m.Get("docs/a.bin") != nil || m.Len() != 0 {
		t.Fatal("manifest delete failed")
	}
	// Restore: the client re-hashes and finds the chunk server-side.
	if s.Size(HashBytes(data)) != int64(len(data)) {
		t.Fatal("server store lost the chunk after local delete")
	}
	_, isNew := s.Put(data)
	if isNew {
		t.Fatal("restore re-uploaded existing content")
	}
}

func TestManifestSetCopiesInput(t *testing.T) {
	m := NewManifest()
	hs := []Hash{HashBytes([]byte("a"))}
	m.Set("p", hs)
	hs[0] = HashBytes([]byte("b"))
	if m.Get("p")[0] == hs[0] {
		t.Fatal("manifest aliases caller slice")
	}
}

func TestHashCollisionFreeOnDistinctContent(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(n uint8) bool {
		a := rng.Bytes(int(n) + 1)
		b := rng.Bytes(int(n) + 1)
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
	h1, _ := s.Put(data)
	h2, _ := s.Put(data)
	if h1 != h2 || h1 != HashBytes(data) {
		t.Fatal("hash not stable")
	}
	if h1.String() == "" || len(h1.String()) != 64 {
		t.Fatal("hex form wrong")
	}
}
