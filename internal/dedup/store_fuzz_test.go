package dedup

import (
	"encoding/binary"
	"testing"
)

// fuzzHash maps an alphabet symbol to a content address built to
// stress the store's index: symbols 2g and 2g+1 share bytes 0..8 (same
// shard, same tag) and differ only later, so a tag match alone never
// identifies a chunk; four shard prefixes pile many chunks into few
// shards; and the tags of one shard share their low four bits, so
// their probe sequences collide and wrap around the table.
func fuzzHash(sym byte) Hash {
	var h Hash
	g := uint32(sym >> 1)
	binary.LittleEndian.PutUint32(h[0:4], g&3)
	binary.LittleEndian.PutUint32(h[4:8], (g>>2)<<4|g&3)
	h[8], h[31] = sym, sym&1
	return h
}

// modelChunk is the plain-map model's record of one chunk.
type modelChunk struct {
	size, at, user int64
	claimed        bool
}

// storeModel is the reference the fuzz target checks the store
// against: a Go map from content address to chunk, with the counters
// the store keeps.
type storeModel struct {
	chunks            map[Hash]*modelChunk
	puts, hits, bytes int64
}

func (m *storeModel) put(h Hash, size int64) (*modelChunk, bool) {
	if c, ok := m.chunks[h]; ok {
		m.hits++
		return c, false
	}
	c := &modelChunk{size: size}
	m.chunks[h] = c
	m.puts++
	m.bytes += size
	return c, true
}

func (m *storeModel) claim(h Hash, size, at, user int64) {
	c, _ := m.put(h, size)
	if !c.claimed || at < c.at || (at == c.at && user < c.user) {
		c.at, c.user, c.claimed = at, user, true
	}
}

func (m *storeModel) winner(h Hash, at, user int64) bool {
	c, ok := m.chunks[h]
	return ok && c.claimed && c.at == at && c.user == user
}

// FuzzStoreModel decodes the input into a sequence of store calls —
// PutHashed, ClaimBatchRef and Size (the membership query: sizes are
// positive, so 0 means absent) on hashes from fuzzHash's
// alphabet, and a check of every ChunkRef handed out so far — and
// checks every return value, the four counters after every call,
// every ref's WonBy mid-sequence (against the model's provisional
// winner) and at the end, against a plain-map model. The first byte
// picks the store: 1 or 64 shards, capacity hint 0 or 100,000. The
// committed corpus holds sequences long enough to grow a shard's
// table several times.
func FuzzStoreModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		shards, hint := 1, 0
		if in[0]&1 != 0 {
			shards = DefaultShards
		}
		if in[0]&2 != 0 {
			hint = 100_000
		}
		s := NewStoreShardedSized(shards, hint)
		m := &storeModel{chunks: map[Hash]*modelChunk{}}
		type refClaim struct {
			ref      ChunkRef
			h        Hash
			at, user int64
		}
		var refs []refClaim
		in = in[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// group extends h by up to three more symbols, keeping those
		// routing to h's shard, as a batching caller groups them.
		group := func(h Hash) []Hash {
			n := 1 + int(next()%4)
			hs := []Hash{h}
			for i := 1; i < n; i++ {
				if h2 := fuzzHash(next()); s.ShardOf(h2) == s.ShardOf(h) {
					hs = append(hs, h2)
				}
			}
			return hs
		}
		checkRefs := func(when string) {
			for _, r := range refs {
				if got, want := r.ref.WonBy(r.at, r.user), m.winner(r.h, r.at, r.user); got != want {
					t.Fatalf("%s: ref of %v: WonBy(%d, %d) = %v, model %v", when, r.h, r.at, r.user, got, want)
				}
				if c := m.chunks[r.h]; !r.ref.WonBy(c.at, c.user) {
					t.Fatalf("%s: ref of %v: not won by the model's winner (%d, %d)", when, r.h, c.at, c.user)
				}
			}
		}
		for len(in) > 0 {
			op := next() % 5
			h := fuzzHash(next())
			size := int64(next()) + 1
			at, user := int64(next()%16), int64(next()%4)
			switch op {
			case 0:
				_, want := m.put(h, size)
				if got := s.PutHashed(h, size); got != want {
					t.Fatalf("PutHashed(%v) = %v, model %v", h, got, want)
				}
			case 1:
				hs := group(h)
				sizes := make([]int64, len(hs))
				out := make([]ChunkRef, len(hs))
				for i := range hs {
					sizes[i] = size + int64(i)
					m.claim(hs[i], sizes[i], at, user)
				}
				s.ClaimBatchRef(hs, sizes, at, user, out)
				for i, r := range out {
					refs = append(refs, refClaim{r, hs[i], at, user})
				}
			case 2, 3:
				var want int64
				if c, ok := m.chunks[h]; ok {
					want = c.size
				}
				if got := s.Size(h); got != want {
					t.Fatalf("Size(%v) = %d, model %d", h, got, want)
				}
			case 4:
				checkRefs("mid-sequence")
			}
			if s.UniqueChunks() != len(m.chunks) || s.Puts() != m.puts || s.Hits() != m.hits || s.StoredBytes() != m.bytes {
				t.Fatalf("after op %d: unique/puts/hits/bytes = %d/%d/%d/%d, model %d/%d/%d/%d", op,
					s.UniqueChunks(), s.Puts(), s.Hits(), s.StoredBytes(), len(m.chunks), m.puts, m.hits, m.bytes)
			}
		}
		checkRefs("at the end")
	})
}
