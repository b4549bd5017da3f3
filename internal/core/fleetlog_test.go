package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestFleetLogReplayMatchesGeneration pins the log's core promise: the
// claim pass's recorded stream, replayed, drives a sink through
// exactly the sessions a second generation walk would produce — same
// sessions, same order, same chunk runs (each ref's entry holding the
// address generation emitted), same file counts.
func TestFleetLogReplayMatchesGeneration(t *testing.T) {
	cfg := smallFleet(600).withDefaults()
	starts := classStarts(cfg.Classes, cfg.Users)
	for stripe := 0; stripe < 8; stripe++ {
		log := &fleetLog{}
		walkFleetStripe(cfg, starts, stripe, &claimSink{store: cfg.Store, log: log})

		want := &recordSink{}
		walkFleetStripe(cfg, starts, stripe, want)
		got := &recordSink{}
		log.replay(got)
		if !reflect.DeepEqual(want.sessions, got.sessions) {
			t.Fatalf("stripe %d: replay diverged from generation (%d vs %d sessions)",
				stripe, len(got.sessions), len(want.sessions))
		}
	}
}

// TestFleetLogRecordSizes pins the log's footprint that fleetlog.go
// states: 32 B a session, 16 B a chunk.
func TestFleetLogRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(logSession{}); got != 32 {
		t.Errorf("logSession is %d B, want 32", got)
	}
	if got := unsafe.Sizeof(logChunk{}); got != 16 {
		t.Errorf("logChunk is %d B, want 16", got)
	}
}

// TestFleetPopulationSweepWorkerEquivalence pins the sweep contract:
// points land in population order and are bit-identical whatever the
// worker count, both across the sweep fan-out and inside each day.
func TestFleetPopulationSweepWorkerEquivalence(t *testing.T) {
	pops := []int{300, 900, 1800}
	base := FleetPopulationSweep(smallFleet(0), pops, 1)
	if len(base) != len(pops) {
		t.Fatalf("sweep returned %d points for %d populations", len(base), len(pops))
	}
	for i, p := range base {
		if p.Users != pops[i] {
			t.Fatalf("point %d: users %d, want %d (population order)", i, p.Users, pops[i])
		}
	}
	for _, workers := range []int{2, 8} {
		got := FleetPopulationSweep(smallFleet(0), pops, workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d sweep diverged:\n  seq: %+v\n  got: %+v", workers, base, got)
		}
	}
}

// TestFleetSessionAllocationCeiling is the allocation regression gate
// on the fleet hot path: total bytes allocated per simulated session —
// including the store, the logs and the one-time class tables — must
// stay under a fixed ceiling. The one-pass engine lands around 1.1 KB
// per session on a 3k-user day; the ceiling leaves headroom for noise
// but catches an accidental per-session or per-chunk allocation (a
// reverted RNG reuse, an unbatched claim path) immediately.
func TestFleetSessionAllocationCeiling(t *testing.T) {
	const maxBytesPerSession = 4096

	cfg := smallFleet(3000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := RunFleet(cfg, 1)
	runtime.ReadMemStats(&after)

	if r.Sessions == 0 {
		t.Fatal("degenerate day: no sessions")
	}
	perSession := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Sessions)
	t.Logf("%.0f B allocated per session over %d sessions", perSession, r.Sessions)
	if perSession > maxBytesPerSession {
		t.Fatalf("fleet hot path allocates %.0f B/session, ceiling %d", perSession, maxBytesPerSession)
	}
}
