package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/client"
	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the fleet engine: N simulated users (10⁵–10⁶) sharing
// one cloud backend for a whole service day, so population composition
// changes server-side bytes — the paper's per-client deduplication
// phenomenon (Sect. 4.3) studied at service scale.
//
// Shape of the computation. A user is never materialised: it is an
// index. Everything a user does during the day — its session instants
// (arrival process), its per-session file mix, the content identity of
// every chunk it would upload — is derived on the fly from
// fleetSeed(base, user, session), the same index→seed discipline
// campaignSeed uses. Files stay lazy workload descriptors; a chunk's
// content address is a pure function of the descriptor tuple, so a
// million-user day never generates a byte of file content: fleet
// memory grows with the chunks the day offers (the store's entries and
// the session log), never with file bytes.
//
// Users are partitioned over a fixed number of stripes (independent of
// the worker count), and stripes fan out over the shared core.RunN
// budget. Within a stripe an event heap advances users in virtual
// time: pop the user with the earliest next session, replay that
// session, push it back at its next arrival.
//
// Cross-user dedup under parallelism is the interesting part. Which
// user pays for a popular chunk depends on who uploads it first in
// *virtual* time — but stripes execute concurrently in *wall* time, in
// arbitrary order. The engine therefore resolves the day in two
// passes over the sharded store:
//
//   - Claim pass: every session claims its chunks with the session's
//     (virtual instant, user) pair, one batch per (session, shard)
//     group (dedup.Store.ClaimBatchRef). The store keeps the earliest
//     claim per chunk — a pure function of the offered load, whatever
//     the execution interleaving. While claiming, each stripe records
//     its session stream — a record per session and a (store ref,
//     size) record per chunk — into a flat append-only log
//     (fleetlog.go).
//   - Resolve pass: the day replays from the session log and each
//     session reads who won its chunks straight from the recorded
//     refs (dedup.ChunkRef.WonBy), with no store probe or lock. The
//     earliest claimant uploads, every other claimant deduplicates —
//     exactly the outcome of a sequential virtual-time replay, now
//     computed on all cores.
//
// The log is what makes the day one generation pass: RNG forks,
// arrival draws, Zipf ranks and chunk addressing run once, in the
// claim pass; the resolve pass is a linear walk of the log, its only
// input.
//
// Per-stripe accumulators are integers and are reduced in stripe
// order, so a fleet day is bit-identical at any worker count (pinned
// by TestFleetBitIdenticalAcrossWorkers and the CI fleetbench smoke).

// FleetClass describes one population segment: its share of the
// fleet, how its sessions arrive over the day, and what a session
// uploads. A file is private (fresh content, unique to the user) or
// drawn from the class's shared catalog of popular files with
// Zipf-like popularity — the knob that makes dedup ratio a function of
// population composition.
type FleetClass struct {
	Name     string
	Fraction float64          // share of the population
	Arrival  workload.Arrival // session arrival process

	MinFiles, MaxFiles int   // files per session, uniform
	MinFileBytes       int64 // file size, log-uniform
	MaxFileBytes       int64

	SharedFraction float64 // probability a file comes from the catalog
	CatalogSize    int     // distinct popular files in the catalog

	ChunkBytes int64 // fixed chunk size for content addressing
}

// DefaultFleetClasses is the reference population mix: interactive
// desktop users on a diurnal schedule, steady background sync on
// Poisson arrivals, and a small bursty batch segment (gamma, CV 2) —
// the three-segment shape of the SNIPPETS workload specs.
func DefaultFleetClasses() []FleetClass {
	return []FleetClass{
		{
			Name:     "interactive",
			Fraction: 0.6,
			Arrival:  workload.Diurnal{PerDay: 3, Weights: workload.OfficeHours()},
			MinFiles: 1, MaxFiles: 4,
			MinFileBytes: 10_000, MaxFileBytes: 1 << 20,
			SharedFraction: 0.35, CatalogSize: 4096,
			ChunkBytes: 4 << 20,
		},
		{
			Name:     "background",
			Fraction: 0.3,
			Arrival:  workload.Poisson{PerDay: 8},
			MinFiles: 1, MaxFiles: 2,
			MinFileBytes: 10_000, MaxFileBytes: 100_000,
			SharedFraction: 0.15, CatalogSize: 16384,
			ChunkBytes: 4 << 20,
		},
		{
			Name:     "batch",
			Fraction: 0.1,
			Arrival:  workload.Gamma{PerDay: 1, CV: 2},
			MinFiles: 5, MaxFiles: 20,
			MinFileBytes: 100_000, MaxFileBytes: 4 << 20,
			SharedFraction: 0.5, CatalogSize: 1024,
			ChunkBytes: 4 << 20,
		},
	}
}

// FleetConfig parameterises one fleet day; RunFleet panics with
// Validate's error on an invalid one. A day's memory grows with its
// offered load (the store's entries and the session log, see
// fleetlog.go) and with Day/Bucket (the per-stripe load curves).
type FleetConfig struct {
	Users int
	Seed  int64

	Day    time.Duration // horizon; default workload.ServiceDay
	Bucket time.Duration // load-curve resolution; default one minute, at most maxFleetBuckets a day

	Classes []FleetClass // default DefaultFleetClasses()

	// Stripes is the fixed user partition fanned over the worker
	// budget. It is part of the result's identity only in the sense
	// that it must not depend on the worker count; any value yields
	// the same result. Default 256.
	Stripes int

	// Store is the shared backend; default a fresh dedup.NewStore().
	// Passing a store lets callers inspect server-side state after
	// the day and choose its shard count.
	Store *dedup.Store

	// tables holds per-class generation tables precomputed in
	// withDefaults — catalog sizes and hoisted logarithm constants —
	// so the generation walk never re-derives a pure function of the
	// class configuration per file.
	tables []classTables
}

// classTables caches the parts of one class's file-mix derivation that
// are pure functions of the class configuration.
type classTables struct {
	catalog []int64 // rank → catalog file size; nil for oversized catalogs
	zipfLog float64 // math.Log(CatalogSize+1), the zipfRank envelope constant
	sizeLog float64 // math.Log(MaxFileBytes/MinFileBytes), the log-uniform span
}

// fleetUploadBps and fleetConnOverhead form the service-side transfer
// model for the load curves: a session holds one connection for
// fleetConnOverhead of handshake and commit plus its wire bytes at
// fleetUploadBps.
const (
	fleetUploadBps    = 8_000_000 // bits per second per connection
	fleetConnOverhead = 500 * time.Millisecond
)

// maxCatalogTable caps the per-class catalog size table; a class with
// a larger catalog derives each referenced file's size from its seed.
const maxCatalogTable = 1 << 20

// maxFleetBuckets caps the load-curve buckets of one day (Day/Bucket
// once defaults resolve). Every stripe holds three int64 counters per
// bucket until the reduce, so the curves cost 24 B × buckets × stripes:
// 1.6 MB a stripe and 0.4 GB for the default 256 stripes at the cap.
const maxFleetBuckets = 1 << 16

// Validate reports the first configuration error that would make a
// fleet day hang, exhaust memory or compute nonsense: a negative
// population, a day of more than maxFleetBuckets load-curve buckets,
// or a class with a non-positive chunk or minimum file size, inverted
// file size or count bounds, no arrival process, a shared fraction
// outside [0, 1], or class fractions that are negative or do not sum
// to 1. Zero fields that withDefaults resolves are valid; nil Classes
// are the default mix.
func (cfg FleetConfig) Validate() error {
	if cfg.Users < 0 {
		return fmt.Errorf("fleet: users must be >= 0 (got %d)", cfg.Users)
	}
	if day, bucket := cfg.dayAndBucket(); day/bucket > maxFleetBuckets {
		return fmt.Errorf("fleet: a %v day in %v buckets needs %d load-curve buckets, more than %d",
			day, bucket, day/bucket, maxFleetBuckets)
	}
	classes := cfg.Classes
	if classes == nil {
		classes = DefaultFleetClasses()
	}
	var sum float64
	for _, c := range classes {
		var err error
		switch {
		case !(c.Fraction >= 0):
			err = fmt.Errorf("fraction must be >= 0 (got %g)", c.Fraction)
		case c.Arrival == nil:
			err = fmt.Errorf("no arrival process")
		case c.MaxFiles < c.MinFiles:
			err = fmt.Errorf("max files %d below min files %d", c.MaxFiles, c.MinFiles)
		case c.MinFileBytes <= 0:
			err = fmt.Errorf("min file bytes must be > 0 (got %d)", c.MinFileBytes)
		case c.MaxFileBytes < c.MinFileBytes:
			err = fmt.Errorf("max file bytes %d below min file bytes %d", c.MaxFileBytes, c.MinFileBytes)
		case !(c.SharedFraction >= 0 && c.SharedFraction <= 1):
			err = fmt.Errorf("shared fraction %g is outside [0, 1]", c.SharedFraction)
		case c.ChunkBytes <= 0:
			err = fmt.Errorf("chunk bytes must be > 0 (got %d)", c.ChunkBytes)
		}
		if err != nil {
			return fmt.Errorf("fleet: class %q: %w", c.Name, err)
		}
		sum += c.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("fleet: class fractions sum to %g, not 1", sum)
	}
	return nil
}

// dayAndBucket resolves the horizon and the load-curve resolution.
func (cfg FleetConfig) dayAndBucket() (day, bucket time.Duration) {
	day, bucket = cfg.Day, cfg.Bucket
	if day <= 0 {
		day = workload.ServiceDay
	}
	if bucket <= 0 {
		bucket = time.Minute
	}
	return day, bucket
}

// withDefaults resolves the zero fields.
func (cfg FleetConfig) withDefaults() FleetConfig {
	cfg.Day, cfg.Bucket = cfg.dayAndBucket()
	if cfg.Classes == nil {
		cfg.Classes = DefaultFleetClasses()
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 256
	}
	if cfg.Stripes > cfg.Users && cfg.Users > 0 {
		cfg.Stripes = cfg.Users
	}
	if cfg.Store == nil {
		cfg.Store = dedup.NewStoreShardedSized(dedup.DefaultShards, FleetChunkHint(cfg.Users, cfg.Day))
	}
	cfg.tables = make([]classTables, len(cfg.Classes))
	for c := range cfg.Classes {
		cls := &cfg.Classes[c]
		t := &cfg.tables[c]
		if cls.CatalogSize > 1 {
			t.zipfLog = math.Log(float64(cls.CatalogSize) + 1)
		}
		if cls.MaxFileBytes > cls.MinFileBytes {
			t.sizeLog = math.Log(float64(cls.MaxFileBytes) / float64(cls.MinFileBytes))
		}
		if cls.CatalogSize <= 0 || cls.CatalogSize > maxCatalogTable {
			continue
		}
		t.catalog = make([]int64, cls.CatalogSize)
		rng := sim.NewRNG(0)
		for r := range t.catalog {
			// The size genFleetSession derives for an oversized
			// catalog's reference, hoisted to once per rank.
			rng.Reseed(catalogSeed(c, r))
			t.catalog[r] = logUniformBytes(rng, cls.MinFileBytes, cls.MaxFileBytes, t.sizeLog)
		}
	}
	return cfg
}

// FleetChunkHint estimates the unique chunks a fleet day offers — the
// capacity hint RunFleet (and drivers building their own backend) hand
// to dedup.NewStoreShardedSized, which sizes each shard's first index
// table and its slab blocks from it. The default class mix lands
// around eight unique chunks per user-day; the hint only sizes
// allocation, so being off merely costs or saves a few table doublings.
func FleetChunkHint(users int, day time.Duration) int {
	if day <= 0 {
		day = workload.ServiceDay
	}
	days := float64(day) / float64(workload.ServiceDay)
	return int(8 * float64(users) * days)
}

// classStarts returns the first user index of each class under
// index-range assignment (class i owns [starts[i], starts[i+1])), so
// segment sizes match the configured fractions exactly and class
// membership is a pure function of the user index.
func classStarts(classes []FleetClass, users int) []int {
	starts := make([]int, len(classes)+1)
	var cum float64
	for i, c := range classes {
		cum += c.Fraction
		starts[i+1] = int(math.Round(cum * float64(users)))
	}
	starts[len(classes)] = users
	return starts
}

// FleetBucket is one load-curve sample: the service side of the fleet
// during [Start, Start+Bucket).
type FleetBucket struct {
	Start     time.Duration `json:"start"`
	Sessions  int64         `json:"sessions"`   // sessions arriving in the bucket
	Conns     int64         `json:"conns"`      // connections overlapping the bucket
	WireBytes int64         `json:"wire_bytes"` // bytes served in the bucket
}

// FleetResult is one fleet day's service-side outcome. All totals are
// integers accumulated in fixed stripe order, so equal configurations
// produce byte-identical results at any worker count.
type FleetResult struct {
	Users    int   `json:"users"`
	Sessions int64 `json:"sessions"`
	Files    int64 `json:"files"`
	Chunks   int64 `json:"chunks"`

	// ContentBytes is the offered load: every byte of every file the
	// fleet synced. WireBytes is what actually travelled — content
	// minus cross-user dedup, plus the dedup manifests announcing
	// chunk hashes. StoredBytes is the backend's unique content.
	ContentBytes  int64 `json:"content_bytes"`
	WireBytes     int64 `json:"wire_bytes"`
	DedupBytes    int64 `json:"dedup_bytes"`
	ManifestBytes int64 `json:"manifest_bytes"`
	UniqueChunks  int   `json:"unique_chunks"`
	StoredBytes   int64 `json:"stored_bytes"`

	// DedupRatio is the fraction of offered content deduplicated
	// away server-side; the fleet headline metric.
	DedupRatio float64 `json:"dedup_ratio"`

	PeakBps   float64 `json:"peak_bps"`   // busiest bucket, bits per second
	PeakConns int64   `json:"peak_conns"` // most concurrent connections

	Buckets []FleetBucket `json:"buckets"`
}

// RunFleet simulates one service day of cfg.Users users against the
// shared backend and returns the service-side load curves. workers
// caps the fan-out (0 = the shared CampaignWorkers budget, 1 =
// sequential); the result is bit-identical at any value. It panics
// with Validate's message on an invalid configuration.
func RunFleet(cfg FleetConfig, workers int) FleetResult {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	starts := classStarts(cfg.Classes, cfg.Users)
	nb := int(cfg.Day / cfg.Bucket)
	if nb < 1 {
		nb = 1
	}

	// Claim pass: generate the day once, recording each stripe's
	// session stream into its log while the store accumulates every
	// chunk's earliest (instant, user) pair.
	logs := RunN(cfg.Stripes, workers, func(stripe int) *fleetLog {
		log := &fleetLog{}
		walkFleetStripe(cfg, starts, stripe, &claimSink{store: cfg.Store, log: log})
		return log
	})

	// Resolve pass: replay the day from the logs, attribute uploads to
	// claim winners, and fold the service-side load curves per stripe.
	parts := RunN(cfg.Stripes, workers, func(stripe int) *fleetStripeTotals {
		sink := newResolveSink(cfg, nb)
		logs[stripe].replay(sink)
		logs[stripe] = nil // release the arenas as stripes finish
		return &sink.tot
	})

	// Deterministic reduce: integer sums in stripe order.
	res := FleetResult{Users: cfg.Users, Buckets: make([]FleetBucket, nb)}
	for i := range res.Buckets {
		res.Buckets[i].Start = time.Duration(i) * cfg.Bucket
	}
	for _, p := range parts {
		res.Sessions += p.sessions
		res.Files += p.files
		res.Chunks += p.chunks
		res.ContentBytes += p.contentBytes
		res.WireBytes += p.wireBytes
		res.DedupBytes += p.dedupBytes
		res.ManifestBytes += p.manifestBytes
		for i := range res.Buckets {
			res.Buckets[i].Sessions += p.bucketSessions[i]
			res.Buckets[i].Conns += p.bucketConns[i]
			res.Buckets[i].WireBytes += p.bucketWire[i]
		}
	}
	res.UniqueChunks = cfg.Store.UniqueChunks()
	res.StoredBytes = cfg.Store.StoredBytes()
	if res.ContentBytes > 0 {
		res.DedupRatio = float64(res.DedupBytes) / float64(res.ContentBytes)
	}
	bucketSecs := cfg.Bucket.Seconds()
	for i := range res.Buckets {
		if bps := float64(res.Buckets[i].WireBytes*8) / bucketSecs; bps > res.PeakBps {
			res.PeakBps = bps
		}
		if res.Buckets[i].Conns > res.PeakConns {
			res.PeakConns = res.Buckets[i].Conns
		}
	}
	return res
}

// fleetSink consumes one stripe's sessions in virtual-time order.
type fleetSink interface {
	StartSession(user int64, at time.Duration)
	Chunk(h dedup.Hash, size int64)
	EndSession(files int)
}

// chunkBatch buffers one session's chunks and hands them out grouped
// by store shard, so claim traffic pays one lock acquisition per
// (session, shard) group instead of one per chunk. All buffers are
// reused across sessions; a session allocates nothing once the high-
// water marks are reached.
type chunkBatch struct {
	hashes []dedup.Hash
	sizes  []int64
	idxs   []int64 // log arena index per chunk
	shards []int32 // ShardOf cache; consumed (set to -1) while grouping

	gh []dedup.Hash // current group scratch
	gs []int64
	gi []int64
}

func (b *chunkBatch) reset() {
	b.hashes, b.sizes = b.hashes[:0], b.sizes[:0]
	b.idxs, b.shards = b.idxs[:0], b.shards[:0]
}

func (b *chunkBatch) add(shard int, h dedup.Hash, size, idx int64) {
	b.hashes = append(b.hashes, h)
	b.sizes = append(b.sizes, size)
	b.idxs = append(b.idxs, idx)
	b.shards = append(b.shards, int32(shard))
}

// forEachShardGroup calls fn once per distinct shard with that shard's
// chunks, in order of first appearance. Sessions hold a handful of
// chunks, so the quadratic gather is cheaper than any map or sort.
func (b *chunkBatch) forEachShardGroup(fn func(hs []dedup.Hash, sizes, idxs []int64)) {
	n := len(b.hashes)
	for i := 0; i < n; i++ {
		sh := b.shards[i]
		if sh < 0 {
			continue
		}
		b.gh, b.gs, b.gi = b.gh[:0], b.gs[:0], b.gi[:0]
		for j := i; j < n; j++ {
			if b.shards[j] == sh {
				b.shards[j] = -1
				b.gh = append(b.gh, b.hashes[j])
				b.gs = append(b.gs, b.sizes[j])
				b.gi = append(b.gi, b.idxs[j])
			}
		}
		fn(b.gh, b.gs, b.gi)
	}
}

// claimSink is the first pass: record the session stream into the
// stripe log and claim every chunk at the session's virtual instant,
// one ClaimBatchRef per (session, shard) group. The store resolves
// concurrent claims to the (instant, user) minimum, so this pass is
// order-free and batching cannot change the outcome.
type claimSink struct {
	store *dedup.Store
	log   *fleetLog
	user  int64
	atNs  int64
	batch chunkBatch
	refs  []dedup.ChunkRef // ClaimBatchRef output scratch
}

func (s *claimSink) StartSession(user int64, at time.Duration) {
	s.user, s.atNs = user, int64(at)
	s.log.startSession(user, at)
	s.batch.reset()
}
func (s *claimSink) Chunk(h dedup.Hash, size int64) {
	// The chunk's log arena index rides along so EndSession can file
	// the claimed ref back into the log.
	s.batch.add(s.store.ShardOf(h), h, size, s.log.chunk(size))
}
func (s *claimSink) EndSession(files int) {
	s.log.endSession(files)
	s.batch.forEachShardGroup(func(hs []dedup.Hash, sizes, idxs []int64) {
		if cap(s.refs) < len(hs) {
			s.refs = make([]dedup.ChunkRef, len(hs))
		}
		out := s.refs[:len(hs)]
		s.store.ClaimBatchRef(hs, sizes, s.atNs, s.user, out)
		for i, r := range out {
			s.log.chunks[idxs[i]].ref = r
		}
	})
}

// fleetStripeTotals is one stripe's integer accumulators.
type fleetStripeTotals struct {
	sessions, files, chunks                            int64
	contentBytes, wireBytes, dedupBytes, manifestBytes int64
	bucketSessions, bucketConns, bucketWire            []int64
}

// resolveSink is the second pass: read who won each replayed chunk,
// charge uploads to winners, and fold per-stripe load curves.
type resolveSink struct {
	cfg FleetConfig
	nb  int
	tot fleetStripeTotals

	// current session state
	user       int64
	atNs       int64
	at         time.Duration
	upload     int64 // content bytes this session uploads
	dedup      int64 // content bytes deduplicated away
	chunkCount int

	seen []dedup.ChunkRef // session-unique refs already resolved
}

func newResolveSink(cfg FleetConfig, nb int) *resolveSink {
	return &resolveSink{
		cfg: cfg,
		nb:  nb,
		tot: fleetStripeTotals{
			bucketSessions: make([]int64, nb),
			bucketConns:    make([]int64, nb),
			bucketWire:     make([]int64, nb),
		},
	}
}

func (s *resolveSink) StartSession(user int64, at time.Duration) {
	s.user, s.at, s.atNs = user, at, int64(at)
	s.upload, s.dedup, s.chunkCount = 0, 0, 0
	s.seen = s.seen[:0]
}

// ChunkResolved takes one replayed chunk (refSink): the chunk arrives
// as its claimed store entry, so the winner verdict is a direct entry
// read — no store probe, no lock. Within-session dedup: the client's
// manifest catches a repeated chunk before the server is even asked.
// Equal chunks share one store entry, so that is a ref compare, and
// sessions hold a handful of chunks, so a linear scan beats a map.
func (s *resolveSink) ChunkResolved(r dedup.ChunkRef, size int64) {
	s.chunkCount++
	for _, prev := range s.seen {
		if prev == r {
			s.dedup += size
			return
		}
	}
	s.seen = append(s.seen, r)
	if r.WonBy(s.atNs, s.user) {
		s.upload += size
	} else {
		s.dedup += size
	}
}

func (s *resolveSink) EndSession(files int) {
	t := &s.tot
	t.sessions++
	t.files += int64(files)
	t.chunks += int64(s.chunkCount)
	t.contentBytes += s.upload + s.dedup
	t.dedupBytes += s.dedup
	manifest := client.ManifestBytes(s.chunkCount)
	wire := s.upload + manifest
	t.wireBytes += wire
	t.manifestBytes += manifest

	// Transfer model: one connection held for the handshake/commit
	// overhead plus the wire bytes at the per-connection rate.
	dur := fleetConnOverhead +
		time.Duration(float64(wire*8)/float64(fleetUploadBps)*float64(time.Second))
	start, end := s.at, s.at+dur

	b0 := int(start / s.cfg.Bucket)
	b1 := int(end / s.cfg.Bucket)
	if b0 >= s.nb {
		b0 = s.nb - 1
	}
	if b1 >= s.nb {
		// Still in flight at day end: fold the tail into the final
		// bucket so totals stay exact.
		b1 = s.nb - 1
	}
	t.bucketSessions[b0]++
	// Spread the wire bytes over the buckets the transfer overlaps,
	// proportional to overlap, with the last bucket taking the exact
	// remainder so bucket sums equal session totals to the byte.
	var taken int64
	for b := b0; b <= b1; b++ {
		t.bucketConns[b]++
		if b == b1 {
			t.bucketWire[b] += wire - taken
			break
		}
		bucketEnd := time.Duration(b+1) * s.cfg.Bucket
		cum := int64(float64(wire) * float64(bucketEnd-start) / float64(dur))
		if cum > wire {
			cum = wire
		}
		if cum < taken {
			cum = taken
		}
		t.bucketWire[b] += cum - taken
		taken = cum
	}
}

// walkFleetStripe replays every session of the stripe's users in
// virtual-time order. A stripe owns users u ≡ stripe (mod Stripes);
// an event heap keyed (next instant, slot) pops the user with the
// earliest pending session, replays it, and reschedules the user at
// its next arrival. Per-user state is one heap slot and one RNG — the
// O(active users) memory the lazy-descriptor design buys.
func walkFleetStripe(cfg FleetConfig, starts []int, stripe int, sink fleetSink) {
	type userState struct {
		rng   *sim.RNG
		next  time.Duration
		sess  int32
		class int32
	}
	nUsers := (cfg.Users - stripe + cfg.Stripes - 1) / cfg.Stripes
	if nUsers <= 0 {
		return
	}
	slots := make([]userState, nUsers)
	h := fleetHeap{}
	h.grow(nUsers)

	class := int32(0)
	for i := 0; i < nUsers; i++ {
		u := stripe + i*cfg.Stripes
		for int(class) < len(cfg.Classes)-1 && u >= starts[class+1] {
			class++
		}
		// Session 0's RNG draws its own arrival instant first, then
		// its file mix when the session is replayed — so the whole
		// day of user u is a pure function of fleetSeed(seed, u, ·).
		rng := sim.NewRNG(fleetSeed(cfg.Seed, int64(u), 0))
		next := cfg.Classes[class].Arrival.Next(rng, 0)
		if next >= cfg.Day {
			continue // no sessions today
		}
		slots[i] = userState{rng: rng, next: next, class: class}
		h.push(next, int32(i))
	}

	for h.len() > 0 {
		_, slot := h.pop()
		st := &slots[slot]
		u := int64(stripe + int(slot)*cfg.Stripes)
		cls := &cfg.Classes[st.class]

		sink.StartSession(u, st.next)
		files := genFleetSession(cls, int(st.class), &cfg.tables[st.class], st.rng, sink)
		sink.EndSession(files)

		// Next session: a fresh per-(user, session) stream whose
		// first draws are its arrival instant. The slot's RNG is
		// reseeded in place — Reseed is bit-identical to a fresh
		// NewRNG, minus the per-session allocations.
		st.sess++
		st.rng.Reseed(fleetSeed(cfg.Seed, u, int64(st.sess)))
		next := cls.Arrival.Next(st.rng, st.next)
		if next >= cfg.Day {
			st.rng = nil
			continue
		}
		st.next = next
		h.push(next, slot)
	}
}

// genFleetSession emits one session's chunks: a uniform file count,
// each file either private (fresh seed from the session stream) or a
// catalog file picked with Zipf-like popularity. Returns the file
// count. tab is the class's generation table from withDefaults. The
// claim pass is the only generation pass; the resolve pass replays the
// recorded session log.
func genFleetSession(cls *FleetClass, classIdx int, tab *classTables, rng *sim.RNG, sink fleetSink) int {
	files := cls.MinFiles
	if cls.MaxFiles > cls.MinFiles {
		files += rng.Intn(cls.MaxFiles - cls.MinFiles + 1)
	}
	for i := 0; i < files; i++ {
		var seed, size int64
		if rng.Float64() < cls.SharedFraction {
			rank := zipfRank(rng.Float64(), cls.CatalogSize, tab.zipfLog)
			// A catalog file is the same content for every user: its
			// seed and size are pure functions of its rank.
			seed = catalogSeed(classIdx, rank)
			if rank < len(tab.catalog) {
				size = tab.catalog[rank]
			} else {
				size = logUniformBytes(sim.NewRNG(seed), cls.MinFileBytes, cls.MaxFileBytes, tab.sizeLog)
			}
		} else {
			seed = rng.Int63()
			size = logUniformBytes(rng, cls.MinFileBytes, cls.MaxFileBytes, tab.sizeLog)
		}
		for off := int64(0); off < size; off += cls.ChunkBytes {
			ln := size - off
			if ln > cls.ChunkBytes {
				ln = cls.ChunkBytes
			}
			sink.Chunk(fleetChunkHash(seed, size, off, ln), ln)
		}
	}
	return files
}

// fleetChunkHash is the content address of one chunk of a lazy fleet
// file. Generated content is a pure function of its descriptor
// stream, so the (seed, size, window) tuple identifies the bytes a
// real client would hash — the same identity argument the
// compressor's descriptor-keyed size cache makes — and a million-user
// day never materialises a chunk to address it. A fleet day uses an
// address only through equality and shard routing, so the address is
// a bijection of the tuple's words — two rounds of steps that each add
// a mix of the other three words to one — and distinct chunks never
// share one (TestFleetChunkHashDomainSeparation inverts it, and
// TestFleetChunkHashSpread checks its shard and tag bytes).
func fleetChunkHash(seed, size, off, ln int64) dedup.Hash {
	a, b, c, d := uint64(seed)^fleetChunkDomain, uint64(size), uint64(off), uint64(ln)
	for round := 0; round < 2; round++ {
		a += mix64(b ^ c ^ d)
		b += mix64(c ^ d ^ a)
		c += mix64(d ^ a ^ b)
		d += mix64(a ^ b ^ c)
	}
	var h dedup.Hash
	for i, w := range [...]uint64{a, b, c, d} {
		binary.LittleEndian.PutUint64(h[8*i:], w)
	}
	return h
}

const fleetChunkDomain = 0xFC // fleet-chunk domain, XORed into the seed

// fleetSeed derives the RNG seed of one (user, session) cell from the
// fleet base seed — the index→seed discipline of campaignSeed, pushed
// through a SplitMix64 finalizer per level so neighbouring cells share
// no low-bit structure.
func fleetSeed(base, user, sess int64) int64 {
	z := mix64(uint64(base) + 0x9e3779b97f4a7c15*uint64(user+1))
	return int64(mix64(z + 0x9e3779b97f4a7c15*uint64(sess+1)))
}

// catalogSeed names popular file rank within a class's shared
// catalog: a pure function, so every user's reference to rank r is
// the same content.
func catalogSeed(class, rank int) int64 {
	z := 0x9e3779b97f4a7c15*uint64(class+1) ^ 0xCA7A106C0FFEE
	return int64(mix64(z + uint64(rank+1)*0xbf58476d1ce4e5b9))
}

// mix64 is the SplitMix64 finalizer (the same mixing sim.RNG.ForkSeed
// uses), the standard avalanche for index→seed derivation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipfRank maps a uniform draw to a catalog rank with Zipf-like
// (s≈1) popularity via the inverse CDF of the continuous envelope:
// rank 0 is the most popular file, mass falling off as 1/(rank+1).
// logN is the envelope constant Log(n+1) (classTables.zipfLog).
func zipfRank(u float64, n int, logN float64) int {
	if n <= 1 {
		return 0
	}
	r := int(math.Exp(u*logN)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// logUniformBytes draws a file size log-uniformly from [lo, hi].
// logRatio is the span constant Log(hi/lo) (classTables.sizeLog).
func logUniformBytes(rng *sim.RNG, lo, hi int64, logRatio float64) int64 {
	if hi <= lo {
		return lo
	}
	v := int64(float64(lo) * math.Exp(rng.Float64()*logRatio))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// fleetHeap is a binary min-heap of (instant, slot) pairs — the
// stripe's virtual-time event queue. Ties break on slot, so pop order
// is a pure function of the events.
type fleetHeap struct {
	t    []time.Duration
	slot []int32
}

func (h *fleetHeap) len() int { return len(h.t) }

func (h *fleetHeap) grow(n int) {
	h.t = make([]time.Duration, 0, n)
	h.slot = make([]int32, 0, n)
}

func (h *fleetHeap) less(i, j int) bool {
	return h.t[i] < h.t[j] || (h.t[i] == h.t[j] && h.slot[i] < h.slot[j])
}

func (h *fleetHeap) swap(i, j int) {
	h.t[i], h.t[j] = h.t[j], h.t[i]
	h.slot[i], h.slot[j] = h.slot[j], h.slot[i]
}

func (h *fleetHeap) push(t time.Duration, slot int32) {
	h.t = append(h.t, t)
	h.slot = append(h.slot, slot)
	i := len(h.t) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *fleetHeap) pop() (time.Duration, int32) {
	t, slot := h.t[0], h.slot[0]
	last := len(h.t) - 1
	h.swap(0, last)
	h.t, h.slot = h.t[:last], h.slot[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h.less(l, min) {
			min = l
		}
		if r < last && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.swap(i, min)
		i = min
	}
	return t, slot
}

// FleetPopulationPoint is one (population, dedup) sample of a
// population sweep.
type FleetPopulationPoint struct {
	Users        int     `json:"users"`
	DedupRatio   float64 `json:"dedup_ratio"`
	ContentBytes int64   `json:"content_bytes"`
	WireBytes    int64   `json:"wire_bytes"`
	UniqueChunks int     `json:"unique_chunks"`
	StoredBytes  int64   `json:"stored_bytes"`
}

// FleetPopulationSweep runs the same fleet day at several population
// sizes (each against a fresh backend) and reports how cross-user
// dedup scales with population — the fleet-level form of the paper's
// Sect. 4.3 observation. The points fan out over the shared RunN
// budget — each owns a fresh backend, so they are independent cells —
// and land in population order; a fleet day is itself bit-identical at
// any worker count, so the sweep is too (pinned by
// TestFleetPopulationSweepWorkerEquivalence). Like RunFleet, it panics
// with Validate's message, before running any point, if the
// configuration at any of the populations is invalid.
func FleetPopulationSweep(cfg FleetConfig, populations []int, workers int) []FleetPopulationPoint {
	for _, n := range populations {
		c := cfg
		c.Users = n
		if err := c.Validate(); err != nil {
			panic(err.Error())
		}
	}
	return RunN(len(populations), workers, func(i int) FleetPopulationPoint {
		c := cfg
		c.Users = populations[i]
		c.Store = nil // fresh backend per population
		r := RunFleet(c, workers)
		return FleetPopulationPoint{
			Users:        populations[i],
			DedupRatio:   r.DedupRatio,
			ContentBytes: r.ContentBytes,
			WireBytes:    r.WireBytes,
			UniqueChunks: r.UniqueChunks,
			StoredBytes:  r.StoredBytes,
		}
	})
}

// String summarises a fleet day for driver output.
func (r FleetResult) String() string {
	return fmt.Sprintf("users=%d sessions=%d files=%d chunks=%d content=%dB wire=%dB dedup=%.3f peak=%.0fbps conns=%d",
		r.Users, r.Sessions, r.Files, r.Chunks, r.ContentBytes, r.WireBytes, r.DedupRatio, r.PeakBps, r.PeakConns)
}
