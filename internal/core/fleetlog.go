package core

import (
	"time"

	"repro/internal/dedup"
)

// This file is the fleet engine's session log: the structure that
// makes the fleet day one-pass. The claim pass records each stripe's
// session stream — user, virtual instant, file count, and the
// (hash, size) run of every chunk — into flat append-only arenas; the
// resolve pass then replays the log instead of re-deriving the whole
// day from seeds, so RNG forks, arrival draws, descriptor chunking and
// chunk hashing run once per day instead of twice.
//
// The log is pure mechanism: replaying it drives a fleetSink through
// exactly the StartSession/Chunk/EndSession sequence the generation
// walk would, so the resolved day is bit-identical either way (pinned
// by TestFleetLogReplayMatchesGeneration and, indirectly, by every
// existing bit-identity test running on top of it). When a stripe's
// log would exceed its memory budget the stripe discards the log and
// the resolve pass falls back to regeneration — a pure perf fallback
// with identical output (TestFleetLogForcedFallback).

// DefaultFleetLogBudget caps the total bytes the fleet engine may
// retain in session logs across all stripes of one day. A million-user
// default-mix day logs on the order of half a GiB; anything past the
// budget regenerates instead of replaying.
const DefaultFleetLogBudget = int64(1) << 30

// fleetLog is one stripe's recorded session stream. Sessions and
// chunks live in parallel flat slices — one arena append per chunk and
// per session, no per-session allocations.
type fleetLog struct {
	budget int64 // retained-byte ceiling; exceeded => full
	bytes  int64 // retained bytes, counted as arena payload
	full   bool  // budget exceeded: log dropped, stripe regenerates

	// Per-session headers. chunkEnd[i] is the end offset of session
	// i's chunk run in the chunk arenas; the run starts at
	// chunkEnd[i-1] (0 for the first session).
	users    []int64
	atNs     []int64
	files    []int32
	chunkEnd []int64

	// Chunk arenas shared by all sessions of the stripe. refs is
	// filled in by the claim pass as each session's ClaimBatchRef
	// returns: the store entry behind refs[j] is the one a Winner
	// probe for hashes[j] would find, which is what lets the replay
	// resolve winners without touching the store's index or locks.
	hashes []dedup.Hash
	sizes  []int64
	refs   []dedup.ChunkRef
}

// logBytesPerChunk and logBytesPerSession are the arena payload costs
// used for budget accounting: a chunk is one Hash plus one size plus
// one store ref, a session header is four fixed-width fields.
const (
	logBytesPerChunk   = int64(len(dedup.Hash{})) + 8 + 8
	logBytesPerSession = 8 + 8 + 4 + 8
)

func newFleetLog(budget int64) *fleetLog {
	if budget <= 0 {
		budget = DefaultFleetLogBudget
	}
	return &fleetLog{budget: budget}
}

// startSession opens a session header. No-op once the budget tripped.
func (l *fleetLog) startSession(user int64, at time.Duration) {
	if l.full {
		return
	}
	l.bytes += logBytesPerSession
	if l.bytes > l.budget {
		l.drop()
		return
	}
	l.users = append(l.users, user)
	l.atNs = append(l.atNs, int64(at))
	l.files = append(l.files, 0)
	l.chunkEnd = append(l.chunkEnd, int64(len(l.hashes)))
}

// chunk appends one (hash, size) pair to the open session's run.
func (l *fleetLog) chunk(h dedup.Hash, size int64) {
	if l.full {
		return
	}
	l.bytes += logBytesPerChunk
	if l.bytes > l.budget {
		l.drop()
		return
	}
	l.hashes = append(l.hashes, h)
	l.sizes = append(l.sizes, size)
	l.refs = append(l.refs, dedup.ChunkRef{})
	l.chunkEnd[len(l.chunkEnd)-1] = int64(len(l.hashes))
}

// endSession seals the open session with its file count.
func (l *fleetLog) endSession(files int) {
	if l.full {
		return
	}
	l.files[len(l.files)-1] = int32(files)
}

// drop releases the arenas and marks the log unusable: the stripe will
// regenerate in the resolve pass. Releasing eagerly matters — a fleet
// over budget must not hold half-built arenas for the rest of the day.
func (l *fleetLog) drop() {
	l.full = true
	l.users, l.atNs, l.files, l.chunkEnd = nil, nil, nil, nil
	l.hashes, l.sizes, l.refs = nil, nil, nil
}

// refSink is the fast replay surface: a sink that can consume a chunk
// as its claimed store ref resolves winners by a direct entry read
// instead of re-probing the store (resolveSink implements it).
type refSink interface {
	ChunkResolved(r dedup.ChunkRef, size int64)
}

// replay drives sink through the recorded session stream, in recording
// order — exactly the sequence walkFleetStripe would produce. A sink
// that accepts refs (refSink) gets each chunk's claimed store entry
// instead of its hash; the ref identifies the same entry a Winner
// probe for the hash would find, so both surfaces resolve identically.
func (l *fleetLog) replay(sink fleetSink) {
	rs, byRef := sink.(refSink)
	var start int64
	for i, user := range l.users {
		sink.StartSession(user, time.Duration(l.atNs[i]))
		end := l.chunkEnd[i]
		if byRef {
			for j := start; j < end; j++ {
				rs.ChunkResolved(l.refs[j], l.sizes[j])
			}
		} else {
			for j := start; j < end; j++ {
				sink.Chunk(l.hashes[j], l.sizes[j])
			}
		}
		sink.EndSession(int(l.files[i]))
		start = end
	}
}
