package core

import (
	"testing"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runModes drives the identical repetition of the shared upload script
// through a streaming and a buffered testbed and returns both window
// analyses plus both Metrics.
func runModes(p client.Profile, batch workload.Batch, seed int64, jitter float64) (sm, bm Metrics, sa, ba trace.Analysis) {
	c := syncCell{p: p, batch: batch, host: campusHost, jitter: jitter}
	run := func(streaming bool) (Metrics, trace.Analysis) {
		tb, t0 := c.syncOnce(seed, streaming)
		return MeasureWindow(tb, t0, batch.Total()), tb.AnalyzeWindow(t0, trace.AllFlows)
	}
	sm, sa = run(true)
	bm, ba = run(false)
	return sm, bm, sa, ba
}

// TestStreamingMatchesBufferedMeasurement is the end-to-end
// counterpart of the trace-level randomized equivalence test: whole
// repetitions through real service profiles must measure bit-identical
// in both trace modes. The profile set covers the interesting
// classifier paths — split-name services, the edge-terminated
// same-name Google Drive (flow-size heuristic plus per-file
// connections, so hundreds of SYNs), the same-name Wuala, and Cloud
// Drive's per-file control connections.
func TestStreamingMatchesBufferedMeasurement(t *testing.T) {
	batch := workload.Batch{Count: 25, Size: 10_000, Kind: workload.Binary}
	for _, p := range client.Profiles() {
		sm, bm, sa, ba := runModes(p, batch, 77, DefaultJitter)
		if sm != bm {
			t.Errorf("%s: streaming metrics diverge\n stream %+v\n buffer %+v", p.Service, sm, bm)
		}
		if sa.Packets != ba.Packets || sa.TotalWire != ba.TotalWire ||
			sa.Connections != ba.Connections || sa.HasPayload != ba.HasPayload ||
			!sa.FirstPayload.Equal(ba.FirstPayload) || !sa.LastPayload.Equal(ba.LastPayload) {
			t.Errorf("%s: window analyses diverge\n stream %+v\n buffer %+v", p.Service, sa, ba)
		}
		if len(sa.SYNTimes) != len(ba.SYNTimes) {
			t.Fatalf("%s: SYN timeline length %d vs %d", p.Service, len(sa.SYNTimes), len(ba.SYNTimes))
		}
		for i := range sa.SYNTimes {
			if !sa.SYNTimes[i].Equal(ba.SYNTimes[i]) {
				t.Fatalf("%s: SYN[%d] = %v (stream) vs %v (buffer)", p.Service, i, sa.SYNTimes[i], ba.SYNTimes[i])
			}
		}
	}
}

// TestStreamingMeasureRequiresStartWindow pins the misuse guard: a
// streaming testbed measured without a registered window must fail
// loudly, never silently return an empty analysis of discarded
// packets.
func TestStreamingMeasureRequiresStartWindow(t *testing.T) {
	tb := streamingTestbed(client.Dropbox(), 3)
	start := tb.Settle()
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureWindow on an unregistered streaming window did not panic")
		}
	}()
	MeasureWindow(tb, start, 0)
}
