package dedup

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// randomHashes returns n deterministic pseudo-content addresses. The
// raw RNG words stand in for SHA-256 output: shard routing and map
// behaviour only need uniform bytes, not real preimages.
func randomHashes(seed int64, n int) []Hash {
	rng := sim.NewRNG(seed)
	hs := make([]Hash, n)
	for i := range hs {
		rng.Fill(hs[i][:])
	}
	return hs
}

func TestPutHashedReportsNew(t *testing.T) {
	s := NewStore()
	h := HashBytes([]byte("one lookup"))
	if !s.PutHashed(h, 11) {
		t.Fatal("first PutHashed not new")
	}
	if s.PutHashed(h, 11) {
		t.Fatal("second PutHashed claimed new")
	}
	if s.Hits() != 1 || s.Puts() != 1 {
		t.Fatalf("hits=%d puts=%d", s.Hits(), s.Puts())
	}
}

func TestShardedCountersAggregate(t *testing.T) {
	// Spray hashes across every shard and check the aggregated
	// counters against a flat reference map.
	s := NewStore()
	ref := make(map[Hash]int64)
	var refBytes, refHits int64
	rng := sim.NewRNG(7)
	hs := randomHashes(8, 512)
	for i := 0; i < 4096; i++ {
		h := hs[rng.Intn(len(hs))]
		size := int64(rng.Intn(1000)) + 1
		if old, ok := ref[h]; ok {
			refHits++
			size = old // store keeps the first size
		} else {
			ref[h] = size
			refBytes += size
		}
		s.PutHashed(h, size)
	}
	if s.UniqueChunks() != len(ref) {
		t.Fatalf("UniqueChunks = %d, want %d", s.UniqueChunks(), len(ref))
	}
	if s.StoredBytes() != refBytes {
		t.Fatalf("StoredBytes = %d, want %d", s.StoredBytes(), refBytes)
	}
	if s.Hits() != refHits {
		t.Fatalf("Hits = %d, want %d", s.Hits(), refHits)
	}
	if s.Puts() != int64(len(ref)) {
		t.Fatalf("Puts = %d, want %d", s.Puts(), len(ref))
	}
	for _, h := range hs {
		size, ok := ref[h]
		if !ok {
			continue // never drawn by the spray
		}
		if s.Size(h) != size {
			t.Fatalf("chunk %v: Size=%d want %d", h, s.Size(h), size)
		}
	}
}

func TestShardCountIndependence(t *testing.T) {
	// The same workload lands identically on a single-lock store and
	// on any sharded configuration.
	hs := randomHashes(9, 300)
	stores := []*Store{NewStoreSharded(1), NewStoreSharded(4), NewStoreSharded(64)}
	for _, s := range stores {
		for i, h := range hs {
			s.PutHashed(h, int64(i%97)+1)
			s.PutHashed(h, int64(i%97)+1) // duplicate: a hit
		}
	}
	for _, s := range stores[1:] {
		if s.UniqueChunks() != stores[0].UniqueChunks() ||
			s.StoredBytes() != stores[0].StoredBytes() ||
			s.Hits() != stores[0].Hits() {
			t.Fatalf("shards=%d disagrees with single-lock: chunks %d/%d bytes %d/%d hits %d/%d",
				s.Shards(), s.UniqueChunks(), stores[0].UniqueChunks(),
				s.StoredBytes(), stores[0].StoredBytes(), s.Hits(), stores[0].Hits())
		}
	}
}

func TestNewStoreShardedRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewStoreSharded(tc.in).Shards(); got != tc.want {
			t.Errorf("NewStoreSharded(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// claim is the (instant, user) pair of one would-be uploader, as the
// tests spell it; the store keeps the pair inline in its chunk entry.
type claim struct {
	at   int64
	user int64
}

// claimOne claims a single chunk: the one-chunk batch, the degenerate
// shard group.
func claimOne(s *Store, h Hash, size, at, user int64) ChunkRef {
	var ref [1]ChunkRef
	s.ClaimBatchRef([]Hash{h}, []int64{size}, at, user, ref[:])
	return ref[0]
}

func TestClaimEarliestWins(t *testing.T) {
	h := HashBytes([]byte("popular chunk"))
	// Claims arrive in scrambled execution order; the (at, user)
	// minimum must win regardless, and every claimant's ref names the
	// one entry that records it.
	orders := [][]claim{
		{{at: 30, user: 2}, {at: 10, user: 5}, {at: 20, user: 1}},
		{{at: 10, user: 5}, {at: 20, user: 1}, {at: 30, user: 2}},
		{{at: 20, user: 1}, {at: 30, user: 2}, {at: 10, user: 5}},
	}
	for _, order := range orders {
		s := NewStore()
		refs := make([]ChunkRef, len(order))
		for i, c := range order {
			refs[i] = claimOne(s, h, 100, c.at, c.user)
		}
		for i, c := range order {
			if got, want := refs[i].WonBy(c.at, c.user), c == (claim{at: 10, user: 5}); got != want {
				t.Fatalf("order %v: claim %v WonBy = %v, want %v", order, c, got, want)
			}
			if refs[i] != refs[0] {
				t.Fatalf("order %v: claim %v got a ref to another entry", order, c)
			}
		}
		if s.UniqueChunks() != 1 || s.Hits() != 2 || s.Puts() != 1 {
			t.Fatalf("claim counters: chunks=%d hits=%d puts=%d",
				s.UniqueChunks(), s.Hits(), s.Puts())
		}
	}
}

func TestClaimTieBreaksOnUser(t *testing.T) {
	s := NewStore()
	h := HashBytes([]byte("tie"))
	claimOne(s, h, 1, 50, 9)
	ref := claimOne(s, h, 1, 50, 3)
	if !ref.WonBy(50, 3) || ref.WonBy(50, 9) {
		t.Fatal("equal-instant tie must resolve to the lower user index")
	}
}

// shardGroups splits hashes (with parallel sizes) into per-shard
// groups the way the fleet's batching sinks do, preserving
// first-appearance order within each group.
func shardGroups(s *Store, hs []Hash, sizes []int64) (groups [][]Hash, groupSizes [][]int64) {
	byShard := make(map[int]int)
	for i, h := range hs {
		sh := s.ShardOf(h)
		gi, ok := byShard[sh]
		if !ok {
			gi = len(groups)
			byShard[sh] = gi
			groups = append(groups, nil)
			groupSizes = append(groupSizes, nil)
		}
		groups[gi] = append(groups[gi], h)
		groupSizes[gi] = append(groupSizes[gi], sizes[i])
	}
	return groups, groupSizes
}

func TestClaimBatchMatchesPerChunkClaims(t *testing.T) {
	// ClaimBatchRef promises exact equivalence with claiming its
	// chunks one at a time: same winners, same counters. Drive the
	// same claim schedule — several users, overlapping chunk sets —
	// through shard-grouped batches and through one-chunk batches and
	// compare everything observable.
	hs := randomHashes(11, 200)
	rng := sim.NewRNG(13)
	type session struct {
		at, user int64
		hs       []Hash
		sizes    []int64
	}
	var sessions []session
	for u := int64(0); u < 40; u++ {
		sess := session{at: int64(rng.Intn(1000)), user: u}
		for k := 0; k < 10; k++ {
			sess.hs = append(sess.hs, hs[rng.Intn(len(hs))])
			sess.sizes = append(sess.sizes, int64(rng.Intn(500))+1)
		}
		sessions = append(sessions, sess)
	}

	single, batched := NewStoreSharded(8), NewStoreSharded(8)
	singleRefs := make([][]ChunkRef, len(sessions))
	batchedRefs := make([][]ChunkRef, len(sessions))
	for k, sess := range sessions {
		for i, h := range sess.hs {
			singleRefs[k] = append(singleRefs[k], claimOne(single, h, sess.sizes[i], sess.at, sess.user))
		}
		groups, groupSizes := shardGroups(batched, sess.hs, sess.sizes)
		for g := range groups {
			out := make([]ChunkRef, len(groups[g]))
			batched.ClaimBatchRef(groups[g], groupSizes[g], sess.at, sess.user, out)
			batchedRefs[k] = append(batchedRefs[k], out...)
		}
	}

	if single.UniqueChunks() != batched.UniqueChunks() || single.StoredBytes() != batched.StoredBytes() ||
		single.Hits() != batched.Hits() || single.Puts() != batched.Puts() {
		t.Fatalf("counters diverged: chunks %d/%d bytes %d/%d hits %d/%d puts %d/%d",
			single.UniqueChunks(), batched.UniqueChunks(), single.StoredBytes(), batched.StoredBytes(),
			single.Hits(), batched.Hits(), single.Puts(), batched.Puts())
	}
	// Both sides name each session's chunks by ref; compare the
	// verdicts hash by hash.
	for k, sess := range sessions {
		won := make(map[Hash]bool)
		for i, h := range sess.hs {
			won[h] = singleRefs[k][i].WonBy(sess.at, sess.user)
		}
		for _, r := range batchedRefs[k] {
			if got, want := r.WonBy(sess.at, sess.user), won[r.Hash()]; got != want {
				t.Fatalf("user %d chunk %v: batched WonBy=%v, one-chunk WonBy=%v", sess.user, r.Hash(), got, want)
			}
		}
	}
}

func TestClaimBatchRefResolvesLikeWinner(t *testing.T) {
	// A ref handed out by ClaimBatchRef must resolve (via WonBy) to
	// the chunk's (at, user) minimum over every claim, including after
	// later claims displace the provisional winner.
	s := NewStoreSharded(4)
	hs := randomHashes(21, 64)
	sizes := make([]int64, len(hs))
	for i := range sizes {
		sizes[i] = int64(i) + 1
	}

	type claimed struct {
		at, user int64
		hs       []Hash
		refs     []ChunkRef
	}
	var all []claimed
	winner := make(map[Hash]claim) // the test's own (at, user) minimum
	for u := int64(0); u < 8; u++ {
		// Later users claim earlier instants, so winners keep moving.
		at := int64(100 - u*10)
		c := claimed{at: at, user: u}
		groups, groupSizes := shardGroups(s, hs[:32+u*4], sizes[:32+u*4])
		for g := range groups {
			refs := make([]ChunkRef, len(groups[g]))
			s.ClaimBatchRef(groups[g], groupSizes[g], at, u, refs)
			c.hs = append(c.hs, groups[g]...)
			c.refs = append(c.refs, refs...)
		}
		for _, h := range c.hs {
			if w, ok := winner[h]; !ok || at < w.at || (at == w.at && u < w.user) {
				winner[h] = claim{at: at, user: u}
			}
		}
		all = append(all, c)
	}
	for _, c := range all {
		for i, h := range c.hs {
			if got, want := c.refs[i].WonBy(c.at, c.user), winner[h] == (claim{c.at, c.user}); got != want {
				t.Fatalf("user %d chunk %v: WonBy=%v, want %v", c.user, h, got, want)
			}
		}
	}
	if (ChunkRef{}).WonBy(0, 0) {
		t.Fatal("zero ChunkRef reported a win")
	}
}

func TestNewStoreShardedSizedBehavesLikeUnsized(t *testing.T) {
	// The capacity hint is allocation-only: any hint (absurd ones
	// included) must leave behaviour untouched.
	hs := randomHashes(31, 400)
	ref := NewStoreSharded(16)
	for i, h := range hs {
		ref.PutHashed(h, int64(i)+1)
	}
	for _, hint := range []int{-5, 0, 10, 100_000} {
		s := NewStoreShardedSized(16, hint)
		if s.Shards() != ref.Shards() {
			t.Fatalf("hint %d changed shard count: %d", hint, s.Shards())
		}
		for i, h := range hs {
			s.PutHashed(h, int64(i)+1)
		}
		for _, h := range hs {
			if s.Size(h) != ref.Size(h) {
				t.Fatalf("hint %d diverged on Size", hint)
			}
		}
		if s.UniqueChunks() != ref.UniqueChunks() || s.StoredBytes() != ref.StoredBytes() {
			t.Fatalf("hint %d: chunks %d/%d bytes %d/%d", hint,
				s.UniqueChunks(), ref.UniqueChunks(), s.StoredBytes(), ref.StoredBytes())
		}
	}
}

func TestClaimAndPutShareChunkSpace(t *testing.T) {
	// A chunk uploaded via the plain client path dedups against a
	// fleet claim and vice versa: one content-addressed space.
	s := NewStore()
	h := HashBytes([]byte("shared space"))
	claimOne(s, h, 42, 7, 1)
	if s.PutHashed(h, 42) {
		t.Fatal("PutHashed after a claim reported new")
	}
	if s.UniqueChunks() != 1 || s.StoredBytes() != 42 {
		t.Fatalf("chunks=%d bytes=%d", s.UniqueChunks(), s.StoredBytes())
	}
}

func TestSlabIndexBound(t *testing.T) {
	// The last index that fits is MaxInt32, and its slot (index + 1
	// in the low 32 bits) round-trips without touching the tag; one
	// more entry must panic naming the shard instead of wrapping.
	for _, n := range []int{0, math.MaxInt32} {
		idx := slabIndex(n, 5)
		slot := slotOf(math.MaxUint32, idx)
		if int(idx) != n || slot == 0 || uint32(slot>>32) != math.MaxUint32 || slotIndex(slot) != idx {
			t.Fatalf("entry %d: index %d, slot %#x decodes to %d", n, idx, slot, slotIndex(slot))
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "shard 5") {
			t.Fatalf("slabIndex(MaxInt32+1): panic %q, want one naming shard 5", msg)
		}
	}()
	slabIndex(math.MaxInt32+1, 5)
}

func TestNewStoreAllocations(t *testing.T) {
	// A per-repetition store is built and dropped every campaign
	// repetition: shards allocate nothing until their first insert,
	// whatever the hint.
	if n := testing.AllocsPerRun(20, func() { NewStore() }); n > 2 {
		t.Errorf("NewStore allocates %.0f times, want <= 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { NewStoreShardedSized(DefaultShards, 100_000) }); n > 2 {
		t.Errorf("NewStoreShardedSized with a hint allocates %.0f times, want <= 2", n)
	}
}

func TestStoreLayout(t *testing.T) {
	// An entry is one cache line, and shards do not share lines.
	if n := unsafe.Sizeof(entry{}); n != 64 {
		t.Errorf("entry is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(shard{}); n%64 != 0 {
		t.Errorf("shard is %d bytes, not a whole number of cache lines", n)
	}
}

func TestShardTableGrowth(t *testing.T) {
	// An unsized single-shard store starts at one cache line of slots
	// and doubles at 3/4 load; every chunk stays findable across the
	// rehashes, and a hint sizes the first table for its share.
	hs := randomHashes(41, 5000)
	s := NewStoreSharded(1)
	for i, h := range hs {
		if !s.PutHashed(h, int64(i)+1) {
			t.Fatalf("chunk %d not new", i)
		}
		if i == 5 && len(s.shards[0].slots) != 1<<minTableBits {
			t.Fatalf("6 chunks: %d slots, want %d", len(s.shards[0].slots), 1<<minTableBits)
		}
	}
	if got := len(s.shards[0].slots); got != 8192 {
		t.Fatalf("5000 chunks: %d slots, want 8192", got)
	}
	for i, h := range hs {
		if s.Size(h) != int64(i)+1 {
			t.Fatalf("chunk %d: size %d after growth", i, s.Size(h))
		}
	}
	sized := NewStoreShardedSized(1, 5000)
	sized.PutHashed(hs[0], 1)
	if got := len(sized.shards[0].slots); got != 8192 {
		t.Fatalf("hint 5000: first table %d slots, want 8192", got)
	}
	if got := len(sized.shards[0].slab.blocks[0]); got != 1<<maxSlabBits {
		t.Fatalf("hint 5000: slab block of %d entries, want %d", got, 1<<maxSlabBits)
	}
	huge := NewStoreShardedSized(1, 1<<40)
	huge.PutHashed(hs[0], 1)
	if got := len(huge.shards[0].slots); got != 1<<maxTableBits || huge.Size(hs[0]) != 1 {
		t.Fatalf("hint 2^40: first table %d slots, want the %d cap", got, 1<<maxTableBits)
	}
}
