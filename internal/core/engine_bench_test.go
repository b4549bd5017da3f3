package core

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// syncedTestbed simulates one full 100x10 kB upload and returns the
// testbed ready for measurement.
func syncedTestbed(b *testing.B, p client.Profile) (*Testbed, time.Time, int64) {
	b.Helper()
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	tb := NewTestbed(p, 42, DefaultJitter)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	return tb, t0, batch.Total()
}

// seedMeasureWindow replicates the pre-rewrite measurement path scan
// for scan: a copying window, then one independent full pass (with its
// own flow-set materialisation) per metric. It is the baseline the
// BENCH snapshots track MeasureWindow against.
func seedMeasureWindow(tb *Testbed, t0 time.Time, contentBytes int64) Metrics {
	// Seed Window: copy every packet in range (spans expanded — the
	// seed engine recorded every transmission round individually).
	var packets []trace.Packet
	for _, p := range tb.Cap.ExpandedPackets() {
		if !p.Time.Before(t0) && p.Time.Before(trace.FarFuture) {
			packets = append(packets, p)
		}
	}
	flows := tb.Cap.Flows()
	set := func(f trace.FlowFilter) []bool {
		s := make([]bool, len(flows))
		for i, fl := range flows {
			s[i] = f == nil || f(fl)
		}
		return s
	}
	storage := tb.StorageFilter(t0)

	var m Metrics
	// Scan 1+2: first/last payload time.
	var first, last time.Time
	var ok1 bool
	for s, i := set(storage), 0; i < len(packets); i++ {
		if p := packets[i]; s[p.Flow] && p.HasPayload() {
			first = p.Time
			ok1 = true
			break
		}
	}
	for s, i := set(storage), len(packets)-1; i >= 0; i-- {
		if p := packets[i]; s[p.Flow] && p.HasPayload() {
			last = p.Time
			break
		}
	}
	if ok1 {
		m.Startup = first.Sub(t0)
		m.Completion = last.Sub(first)
	}
	// Scan 3: total wire bytes, all flows.
	for s, i := set(trace.AllFlows), 0; i < len(packets); i++ {
		if p := packets[i]; s[p.Flow] {
			m.TotalTraffic += p.Wire + p.AckWire
		}
	}
	// Scan 4: upstream storage wire bytes.
	for s, i := set(storage), 0; i < len(packets); i++ {
		p := packets[i]
		if !s[p.Flow] {
			continue
		}
		if p.Dir == trace.Upstream {
			m.StorageUp += p.Wire
		} else {
			m.StorageUp += p.AckWire
		}
	}
	if contentBytes > 0 {
		m.Overhead = float64(m.TotalTraffic) / float64(contentBytes)
	}
	// Scan 5 (+6 in the seed: ConnectionCount delegated to SYNTimes).
	for s, i := set(trace.AllFlows), 0; i < len(packets); i++ {
		p := packets[i]
		if s[p.Flow] && p.Flags.SYN && !p.Flags.ACK && p.Dir == trace.Upstream {
			m.Connections++
		}
	}
	if m.Completion > 0 && contentBytes > 0 {
		m.GoodputBps = float64(contentBytes*8) / m.Completion.Seconds()
	}
	return m
}

// TestSeedMeasureWindowReference keeps the benchmark baseline honest:
// it must agree with the production MeasureWindow.
func TestSeedMeasureWindowReference(t *testing.T) {
	for _, p := range client.Profiles() {
		tb, t0, total := syncedTestbed(&testing.B{}, p)
		got := MeasureWindow(tb, t0, total)
		want := seedMeasureWindow(tb, t0, total)
		if got != want {
			t.Errorf("%s: MeasureWindow %+v != seed reference %+v", p.Service, got, want)
		}
	}
}

// BenchmarkMeasureWindow is the acceptance benchmark for the one-pass
// measurement path: new engine vs the seed copy-and-rescan scheme on
// an identical synced testbed.
func BenchmarkMeasureWindow(b *testing.B) {
	tb, t0, total := syncedTestbed(b, client.CloudDrive())
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MeasureWindow(tb, t0, total)
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedMeasureWindow(tb, t0, total)
		}
	})
}

// BenchmarkRunCampaign is the acceptance benchmark for the campaign
// engine: 24 repetitions of the 100x10 kB workload, fanned out over
// the worker pool vs forced sequential.
func BenchmarkRunCampaign(b *testing.B) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	for _, svc := range []string{"clouddrive", "dropbox"} {
		p, _ := client.ProfileFor(svc)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"parallel", 0}, {"sequential", 1}} {
			b.Run(svc+"/"+mode.name, func(b *testing.B) {
				defer func(old int) { CampaignWorkers = old }(CampaignWorkers)
				CampaignWorkers = mode.workers
				for i := 0; i < b.N; i++ {
					RunCampaign(p, batch, 24, 42)
				}
			})
		}
	}
}

// BenchmarkRepetitionFixedCost times one campaign repetition whose
// cost is almost all per-repetition and per-connection fixed cost:
// Cloud Drive's 100x10 kB upload opens a connection per file and does
// no planner work, so seeding the run, DNS, transport and the
// streaming trace fold dominate. As in a campaign, the cell's static
// world is built once and shared by every repetition. Allocations are
// reported because the fold and the per-run setup are where a
// fixed-cost regression shows first.
func BenchmarkRepetitionFixedCost(b *testing.B) {
	cell := syncCell{p: client.CloudDrive(), batch: workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary},
		host: campusHost, jitter: DefaultJitter}
	w := cellWorlds([]syncCell{cell})[0]
	b.ReportAllocs()
	for b.Loop() {
		cell.runSync(w, sim.NewRNG(42))
	}
}
