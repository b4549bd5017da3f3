package dedup

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count of NewStore: enough stripes that a
// worker-per-core fleet rarely collides on a shard lock, small enough
// that a per-repetition single-client store stays a handful of tables.
const DefaultShards = 64

// Store is a server-side content-addressed chunk store, sharded by
// hash prefix with one lock stripe per shard so concurrent clients
// Put/PutHashed without serialising on a single mutex. The zero value
// is not usable; call NewStore (or NewStoreSharded for an explicit
// shard count — NewStoreSharded(1) is the single-lock configuration).
//
// All methods are safe for concurrent use. Counters (StoredBytes,
// UniqueChunks, Hits, Puts) are per-shard atomics maintained under the
// shard lock but read lock-free: a read that overlaps writers returns
// some valid interleaving, and is exact once writers are quiescent.
//
// The lock is a plain sync.Mutex, not a RWMutex: every hot-path store
// operation (PutHashed, ClaimBatchRef) writes, so the RWMutex
// reader/writer bookkeeping was pure overhead — the one read-mostly
// consumer, counter aggregation, is served by the atomics instead.
// Size and claim share one entry per chunk, and the entry holds the
// chunk's full hash, so a fleet-day claim touches one index slot and
// one entry: two cache lines.
type Store struct {
	shards []shard
	mask   uint32
}

// shard is one lock stripe: a linear-probe index over a slab of
// entries. The struct is padded to its own cache lines so per-shard
// state on adjacent shards does not false-share under concurrent Put
// storms.
//
// Each index slot is a uint64: the high 32 bits are the chunk's tag
// (hash bytes 4..8 — bytes 0..4 already picked the shard), the low 32
// bits its slab index + 1, so 0 is an empty slot. The tag's low bits
// also give the probe start, so growing the table rehashes from the
// slot bits alone. A tag match is confirmed against the entry's full
// hash, so lookups are exact. The table stays nil until the shard's
// first insert, is first allocated at the size the store's capacity
// hint gives every shard, and doubles at 3/4 load.
type shard struct {
	mu     sync.Mutex
	slots  []uint64
	slab   entrySlab
	first  uint32 // slots of the table's first allocation, a power of two
	id     uint32 // index in Store.shards, for the slab bound's panic
	bytes  atomic.Int64
	puts   atomic.Int64
	hits   atomic.Int64
	unique atomic.Int64
	_      [16]byte // pad the state to full cache lines
}

// entrySlab hand-allocates entries in fixed blocks so every *entry
// stays address-stable for the life of the store — the property
// ChunkRef relies on — while paying one heap allocation per block
// instead of one per chunk. Entries are addressed by a dense int32
// index; keeping the index (not the pointer) in the index slots leaves
// both the index and the blocks pointer-free, so the garbage collector
// never scans the store's bulk state. The block size comes from the
// store's capacity hint: small for a throwaway per-repetition store,
// large for a fleet day.
type entrySlab struct {
	blocks [][]entry
	n      int   // entries allocated; the next entry's index
	bits   uint8 // log2 of the block size
}

const (
	minSlabBits  = 4  // 16 entries (1 KB) per block for an unsized store
	maxSlabBits  = 10 // 1,024 entries (64 KB) per block at most
	minTableBits = 3  // 8 slots (one cache line) for an unsized store
	maxTableBits = 20 // 1M slots (8 MB) up front at most; a bigger shard grows
)

func (s *entrySlab) alloc(shard uint32) (int32, *entry) {
	idx := slabIndex(s.n, shard)
	b := int(idx >> s.bits)
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]entry, 1<<s.bits))
	}
	s.n++
	return idx, &s.blocks[b][idx&(1<<s.bits-1)]
}

func (s *entrySlab) at(idx int32) *entry {
	return &s.blocks[idx>>s.bits][idx&(1<<s.bits-1)]
}

// slabIndex returns n as the slab index of a shard's next entry, and
// panics when it would not fit: the index is an int32, and a slot
// stores it + 1 in its low 32 bits. n ≤ MaxInt32 bounds both.
func slabIndex(n int, shard uint32) int32 {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("dedup: shard %d is full: entry %d does not fit the int32 slab index", shard, n))
	}
	return int32(n)
}

// slotOf packs a chunk's tag and slab index into an index slot; the
// + 1 keeps every occupied slot nonzero.
func slotOf(tag uint32, idx int32) uint64 { return uint64(tag)<<32 | uint64(uint32(idx)+1) }

// slotIndex is the slab index slotOf packed into an occupied slot.
func slotIndex(slot uint64) int32 { return int32(uint32(slot) - 1) }

// entry is everything the store knows about one chunk: its content
// address, its size and, during a fleet day, the earliest would-be
// uploader in fleet virtual time — the (instant, user) pair orders
// uploads the way a sequential replay of the service day would.
// Keeping the claim inside the chunk entry means a claim and its
// resolve touch one entry, not two; the entry is 64 bytes, one cache
// line.
type entry struct {
	hash    Hash
	size    int64
	at      int64 // earliest claim instant, ns from day start
	user    int64
	claimed bool
}

// find returns h's entry, or nil and the slot an insert of h fills.
// It is the store's one lookup: every method reaches entries through
// it, and put adds what it did not find.
func (sh *shard) find(h *Hash) (*entry, int) {
	if sh.slots == nil {
		return nil, 0
	}
	tag := binary.LittleEndian.Uint32(h[4:8])
	mask := len(sh.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		slot := sh.slots[i]
		if slot == 0 {
			return nil, i
		}
		if uint32(slot>>32) == tag {
			if e := sh.slab.at(slotIndex(slot)); e.hash == *h {
				return e, i
			}
		}
	}
}

// put returns h's entry and whether it is new: a stored chunk counts a
// hit, an absent one becomes a new entry of the given size and counts
// a put. It allocates the table on the shard's first insert and
// doubles it at 3/4 load, probing afresh for h's slot after either.
func (sh *shard) put(h *Hash, size int64) (*entry, bool) {
	e, i := sh.find(h)
	if e != nil {
		sh.hits.Add(1)
		return e, false
	}
	tag := binary.LittleEndian.Uint32(h[4:8])
	if (sh.slab.n+1)*4 > len(sh.slots)*3 {
		sh.grow()
		i = sh.free(tag)
	}
	idx, e := sh.slab.alloc(sh.id)
	e.hash, e.size = *h, size
	sh.slots[i] = slotOf(tag, idx)
	sh.bytes.Add(size)
	sh.puts.Add(1)
	sh.unique.Add(1)
	return e, true
}

// grow allocates the shard's first table, or doubles it and reinserts
// every slot by its tag.
func (sh *shard) grow() {
	old := sh.slots
	if old == nil {
		sh.slots = make([]uint64, sh.first)
		return
	}
	sh.slots = make([]uint64, 2*len(old))
	for _, slot := range old {
		if slot != 0 {
			sh.slots[sh.free(uint32(slot>>32))] = slot
		}
	}
}

// free returns the first empty slot on tag's probe sequence.
func (sh *shard) free(tag uint32) int {
	mask := len(sh.slots) - 1
	i := int(tag) & mask
	for sh.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// beats reports whether claim (at, user) precedes the entry's current
// claim in (instant, user) order; the user index breaks ties
// deterministically. An unclaimed entry is beaten by any claim.
func (e *entry) beats(at, user int64) bool {
	return !e.claimed || at < e.at || (at == e.at && user < e.user)
}

// won reports whether (at, user) is the entry's recorded claim.
func (e *entry) won(at, user int64) bool {
	return e != nil && e.claimed && e.at == at && e.user == user
}

// ChunkRef is an opaque handle to one chunk's store entry, returned by
// ClaimBatchRef. Entries are slab-allocated and never move, so a ref
// taken during the claim pass stays valid for the life of the store.
// The zero ChunkRef refers to nothing and never wins.
type ChunkRef struct{ e *entry }

// WonBy reports whether (at, user) is the earliest recorded claim for
// the referenced chunk, reading the entry without an index probe or
// the lock. Callers must not race it against in-flight claim traffic:
// it is meant for the resolve phase of a claim/resolve protocol, after
// every claimant has synchronised with the claim pass (e.g. the fleet
// engine's barrier between its two RunN fan-outs).
func (r ChunkRef) WonBy(at, user int64) bool { return r.e.won(at, user) }

// Hash returns the referenced chunk's content address.
func (r ChunkRef) Hash() Hash { return r.e.hash }

// NewStore returns an empty store with DefaultShards lock stripes.
func NewStore() *Store { return NewStoreSharded(DefaultShards) }

// NewStoreSharded returns an empty store with n lock stripes, rounded
// up to a power of two (minimum 1; n=1 is a single-lock store).
func NewStoreSharded(n int) *Store { return NewStoreShardedSized(n, 0) }

// NewStoreShardedSized is NewStoreSharded with a capacity hint of
// expectedChunks total unique chunks: each shard's index is first
// allocated big enough for its share of them (up to 1M slots), and its
// entry slab grows in blocks sized to that share (16 to 1,024
// entries), so a caller that knows its offered load (a fleet day, a
// benchmark hammer) skips the incremental growth on the hot path, and
// an unsized store stays small. Nothing is allocated per shard until
// its first insert. The hint only affects allocation, never behaviour.
func NewStoreShardedSized(n, expectedChunks int) *Store {
	if n < 1 {
		n = 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	perShard := 0
	if expectedChunks > 0 {
		perShard = expectedChunks / pow
	}
	// The first table holds perShard at under 3/4 load; a slab block
	// holds perShard, within the block bounds.
	tableBits := minTableBits
	for tableBits < maxTableBits && 3<<tableBits < 4*perShard {
		tableBits++
	}
	slabBits := uint8(minSlabBits)
	for slabBits < maxSlabBits && 1<<slabBits < perShard {
		slabBits++
	}
	s := &Store{shards: make([]shard, pow), mask: uint32(pow - 1)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.id, sh.first, sh.slab.bits = uint32(i), 1<<tableBits, slabBits
	}
	return s
}

// Shards returns the number of lock stripes.
func (s *Store) Shards() int { return len(s.shards) }

// ShardOf returns the index of the lock stripe h routes to. Callers
// batching claims group hashes by this index and hand each group to
// ClaimBatchRef, paying one lock acquisition per group instead of one
// per chunk.
func (s *Store) ShardOf(h Hash) int {
	return int(binary.LittleEndian.Uint32(h[:4]) & s.mask)
}

// shardFor routes a content address to its stripe by hash prefix.
// Addresses must be uniform in their first eight bytes (the shard and
// the index tag): SHA-256 output is, and so is the fleet engine's
// mixed descriptor address, so the stripes load-balance themselves.
func (s *Store) shardFor(h *Hash) *shard {
	return &s.shards[binary.LittleEndian.Uint32(h[:4])&s.mask]
}

// PutHashed stores a chunk of the given size under its content
// address h and reports whether it was new: one lookup decides both
// the insert and the dedup verdict. Storing an already-present chunk
// is a no-op and counts as a dedup hit.
func (s *Store) PutHashed(h Hash, size int64) (isNew bool) {
	sh := s.shardFor(&h)
	sh.mu.Lock()
	_, isNew = sh.put(&h, size)
	sh.mu.Unlock()
	return isNew
}

// claimLocked records (at, user) as a would-be uploader of h in a
// locked shard; the earliest (at, user) pair wins. One lookup covers
// the insert, the put/hit counters and the claim minimum; the returned
// entry is the chunk's stable slab slot.
func (sh *shard) claimLocked(h *Hash, size, at, user int64) *entry {
	e, _ := sh.put(h, size)
	if e.beats(at, user) {
		e.at, e.user, e.claimed = at, user, true
	}
	return e
}

// ClaimBatchRef records (at, user) as a would-be uploader of every
// chunk in hs during a fleet day, and returns each chunk's ChunkRef in
// out[i]. The store keeps each chunk's earliest claim in (at, user)
// order — a pure function of the offered load, independent of the
// execution order of concurrent claimants — so a parallel fleet pass
// resolves exactly the upload set a sequential virtual-time replay
// would: the earliest claimant uploads, everyone else deduplicates
// (ChunkRef.WonBy reads the verdict). Each chunk is stored as by
// PutHashed, and each claim counts identically toward the put/hit
// counters.
//
// The chunks must all route to the same shard (group with ShardOf):
// one lock acquisition covers the whole batch. The claim minimum is
// order-free, so a batch is exactly equivalent to claiming its chunks
// one at a time. hs, sizes and out must have equal length; an empty
// batch is a no-op.
func (s *Store) ClaimBatchRef(hs []Hash, sizes []int64, at, user int64, out []ChunkRef) {
	if len(hs) == 0 {
		return
	}
	sh := s.shardFor(&hs[0])
	sh.mu.Lock()
	for i := range hs {
		out[i] = ChunkRef{sh.claimLocked(&hs[i], sizes[i], at, user)}
	}
	sh.mu.Unlock()
}

// Size returns the stored size of a chunk, or 0 if absent.
func (s *Store) Size(h Hash) int64 {
	sh := s.shardFor(&h)
	sh.mu.Lock()
	var size int64
	if e, _ := sh.find(&h); e != nil {
		size = e.size
	}
	sh.mu.Unlock()
	return size
}

// UniqueChunks returns how many distinct chunks the store holds,
// aggregated across shards without taking any lock.
func (s *Store) UniqueChunks() int {
	var n int64
	for i := range s.shards {
		n += s.shards[i].unique.Load()
	}
	return int(n)
}

// StoredBytes returns the total bytes of unique content stored — the
// "storage capacity" the paper's dedup capability saves — aggregated
// across shards without taking any lock.
func (s *Store) StoredBytes() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].bytes.Load()
	}
	return n
}

// Hits returns how many Put/PutHashed calls and ClaimBatchRef chunks
// were deduplicated away, aggregated across shards without taking any
// lock.
func (s *Store) Hits() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].hits.Load()
	}
	return n
}

// Puts returns how many Put/PutHashed calls and ClaimBatchRef chunks
// stored new content, aggregated across shards without taking any
// lock. Puts+Hits is the total offered chunk count; Puts ==
// UniqueChunks when the store started empty.
func (s *Store) Puts() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].puts.Load()
	}
	return n
}
