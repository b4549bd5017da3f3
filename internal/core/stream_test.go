package core

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkWindowMatchesRecorder asserts that the streamed benchmark
// window and a replay of the recorder over the same window analyze
// field for field alike, on all flows and on the storage flows.
func checkWindowMatchesRecorder(t *testing.T, name string, tb *Testbed, t0 time.Time, rec *trace.Capture) {
	t.Helper()
	for _, f := range []trace.FlowFilter{trace.AllFlows, tb.StorageFilter(t0)} {
		sa, ra := tb.AnalyzeWindow(t0, f), rec.Analyze(f)
		if sa.Packets != ra.Packets || sa.TotalWire != ra.TotalWire ||
			sa.WireUp != ra.WireUp || sa.WireDown != ra.WireDown ||
			sa.PayloadUp != ra.PayloadUp || sa.PayloadDown != ra.PayloadDown ||
			sa.Connections != ra.Connections || sa.HasPayload != ra.HasPayload ||
			!sa.FirstPayload.Equal(ra.FirstPayload) || !sa.LastPayload.Equal(ra.LastPayload) {
			t.Errorf("%s: window analyses diverge\n stream   %+v\n recorder %+v", name, sa, ra)
		}
		if len(sa.SYNTimes) != len(ra.SYNTimes) {
			t.Fatalf("%s: SYN timeline length %d vs %d", name, len(sa.SYNTimes), len(ra.SYNTimes))
		}
		for i := range sa.SYNTimes {
			if !sa.SYNTimes[i].Equal(ra.SYNTimes[i]) {
				t.Fatalf("%s: SYN[%d] = %v (stream) vs %v (recorder)", name, i, sa.SYNTimes[i], ra.SYNTimes[i])
			}
		}
	}
}

// TestStreamingMatchesBufferedMeasurement is the end-to-end
// counterpart of the trace-level randomized equivalence test: in one
// repetition per real service profile, the window the Streamer folded
// at record time must analyze bit-identically to the recorder's
// buffered copy of the same window. The profile set covers the
// interesting classifier paths — split-name services, the
// edge-terminated same-name Google Drive (flow-size heuristic plus
// per-file connections, so hundreds of SYNs), the same-name Wuala, and
// Cloud Drive's per-file control connections.
func TestStreamingMatchesBufferedMeasurement(t *testing.T) {
	batch := workload.Batch{Count: 25, Size: 10_000, Kind: workload.Binary}
	for _, p := range client.Profiles() {
		c := syncCell{p: p, batch: batch, host: campusHost, jitter: DefaultJitter}
		tb, t0, rec := c.recordedRun(77)
		checkWindowMatchesRecorder(t, p.Service, tb, t0, rec)
	}
}

// TestStreamingMeasureRequiresStartWindow pins the misuse guard: a
// testbed measured without a registered window must fail loudly,
// never silently return an empty analysis of discarded packets.
func TestStreamingMeasureRequiresStartWindow(t *testing.T) {
	tb := NewTestbed(client.Dropbox(), 3, 0)
	start := tb.Settle()
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureWindow on an unregistered window did not panic")
		}
	}()
	MeasureWindow(tb, start, 0)
}
