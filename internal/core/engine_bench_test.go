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
// testbed ready for measurement, with a recorder over its window.
func syncedTestbed(p client.Profile) (*Testbed, *trace.Capture, time.Time, int64) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	tb, t0, rec := syncCell{p: p, batch: batch, host: campusHost, jitter: DefaultJitter}.recordedRun(42)
	return tb, rec, t0, batch.Total()
}

// seedMeasureWindow replicates the pre-rewrite measurement path scan
// for scan: a copying window, then one independent full pass (with its
// own flow-set materialisation) per metric. It is the baseline the
// BENCH snapshots track MeasureWindow against.
func seedMeasureWindow(tb *Testbed, rec *trace.Capture, t0 time.Time, contentBytes int64) Metrics {
	// Seed Window: copy every packet in range (spans expanded — the
	// seed engine recorded every transmission round individually).
	var packets []trace.Packet
	for _, p := range rec.ExpandedPackets() {
		if !p.Time.Before(t0) && p.Time.Before(trace.FarFuture) {
			packets = append(packets, p)
		}
	}
	flows := rec.Flows()
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
	// Scan 5 (+6 in the seed: the connection count re-scanned for SYN times).
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
		tb, rec, t0, total := syncedTestbed(p)
		got := MeasureWindow(tb, t0, total)
		want := seedMeasureWindow(tb, rec, t0, total)
		if got != want {
			t.Errorf("%s: MeasureWindow %+v != seed reference %+v", p.Service, got, want)
		}
	}
}

// BenchmarkMeasureWindow is the acceptance benchmark for the one-pass
// measurement path: new engine vs the seed copy-and-rescan scheme on
// an identical synced testbed.
func BenchmarkMeasureWindow(b *testing.B) {
	tb, rec, t0, total := syncedTestbed(client.CloudDrive())
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MeasureWindow(tb, t0, total)
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedMeasureWindow(tb, rec, t0, total)
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
					runCampaign(p, batch, fixedRule(24), VarianceReduction{}, 42)
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

// BenchmarkFleetDay times one 10k-user service day on the default
// class mix and a fresh pre-sized store, through RunFleet at the
// default worker budget (one worker per CPU, so -cpu sets it). It uses
// only the exported API, so the same benchmark runs against any
// revision of the fleet engine.
func BenchmarkFleetDay(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if r := RunFleet(FleetConfig{Users: 10_000, Seed: 42}, 0); r.Sessions == 0 {
			b.Fatal("empty fleet day")
		}
	}
}

// BenchmarkFig4DeltaSet times the cloudbench fig4 set: per
// modification (append, then random insert), a RunN over every service
// of its Fig4DeltaSeries, itself a RunN over the paper's sweep sizes.
// It is the nested fan-out whose few large random-insert cells decide
// how well the shared worker budget is kept busy, so -cpu 1,2 shows
// the scheduler's scaling.
func BenchmarkFig4DeltaSet(b *testing.B) {
	profiles := client.Profiles()
	b.ReportAllocs()
	for b.Loop() {
		for _, mod := range []ModKind{ModAppend, ModRandom} {
			RunN(len(profiles), 0, func(i int) []VolumePoint {
				return Fig4DeltaSeries(profiles[i], mod, Fig4Sizes(mod), 100<<10, 42)
			})
		}
	}
}

// BenchmarkFig6Matrix times the paper's headline campaign in perfbench's
// fig6 shape: Fig6Matrix over all five profiles and the four standard
// workloads at 24 repetitions, 480 cells per op in one flat round on
// the shared worker budget (one worker per CPU, so -cpu sets it). The
// client planner, DEFLATE and SHA-256 do most of the work.
func BenchmarkFig6Matrix(b *testing.B) {
	profiles := client.Profiles()
	b.ReportAllocs()
	for b.Loop() {
		if r := Fig6Matrix(profiles, 24, 42); len(r) != len(profiles) {
			b.Fatal("missing services")
		}
	}
}
