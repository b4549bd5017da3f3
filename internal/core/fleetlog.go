package core

import (
	"time"

	"repro/internal/dedup"
)

// This file is the fleet engine's session log: the structure that
// makes the fleet day one-pass. The claim pass records each stripe's
// session stream — one record per session (user, virtual instant, file
// count) and one per chunk (its claimed store ref and size) — into two
// flat append-only arenas; the resolve pass then replays the log
// instead of re-deriving the whole day from seeds, so RNG forks,
// arrival draws, descriptor chunking and chunk addressing run once per
// day instead of twice. The log holds no content address: a chunk's
// ref names its store entry, which is all the resolve pass asks about.
//
// Replaying the log drives the resolve sink through exactly the
// sessions, chunk runs and file counts the generation walk produced
// (pinned by TestFleetLogReplayMatchesGeneration). Its footprint is
// 32 B per session and 16 B per chunk (TestFleetLogRecordSizes): a
// million-user default-mix day logs about 4.4M sessions and 11M
// chunks, about 0.3 GiB, released stripe by stripe as the resolve pass
// finishes. The log grows with the day, as the store does, and the
// store holds about twice its bytes.

// fleetLog is one stripe's recorded session stream: one arena append
// per session and per chunk, no per-session allocations.
type fleetLog struct {
	sessions []logSession
	chunks   []logChunk // every session's run, back to back
}

// logSession is one session header. end is the end offset of the
// session's run in the chunk arena; the run starts at the previous
// session's end (0 for the first session).
type logSession struct {
	user, atNs, end int64
	files           int32
}

// logChunk is one chunk of a session's run. ref is filled in by the
// claim pass as the session's ClaimBatchRef returns: it names the
// chunk's store entry, which is what lets the replay resolve winners
// without touching the store's index or locks.
type logChunk struct {
	ref  dedup.ChunkRef
	size int64
}

// startSession opens a session header.
func (l *fleetLog) startSession(user int64, at time.Duration) {
	l.sessions = append(l.sessions, logSession{user: user, atNs: int64(at)})
}

// chunk appends one chunk of the given size to the open session's run
// and returns its arena index; its ref is filed by the claim pass.
func (l *fleetLog) chunk(size int64) int64 {
	l.chunks = append(l.chunks, logChunk{size: size})
	return int64(len(l.chunks)) - 1
}

// endSession seals the open session: its run ends at the arena's end.
func (l *fleetLog) endSession(files int) {
	s := &l.sessions[len(l.sessions)-1]
	s.end, s.files = int64(len(l.chunks)), int32(files)
}

// refSink consumes a replayed log: each chunk arrives as its claimed
// store ref, so winners resolve by a direct entry read instead of a
// store probe (resolveSink implements it).
type refSink interface {
	StartSession(user int64, at time.Duration)
	ChunkResolved(r dedup.ChunkRef, size int64)
	EndSession(files int)
}

// replay drives sink through the recorded session stream, in recording
// order — the sessions, chunk runs and file counts walkFleetStripe
// produced, each chunk as the ref of the entry its address claimed.
func (l *fleetLog) replay(sink refSink) {
	var start int64
	for _, s := range l.sessions {
		sink.StartSession(s.user, time.Duration(s.atNs))
		for _, c := range l.chunks[start:s.end] {
			sink.ChunkResolved(c.ref, c.size)
		}
		sink.EndSession(int(s.files))
		start = s.end
	}
}
