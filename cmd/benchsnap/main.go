// Command benchsnap measures the measurement engine itself and writes
// a BENCH_<commit>.json snapshot: a regular campaign (the Fig. 6
// benchmarks, so cmd/comparebench can diff snapshots across commits
// or vantages) extended with engine microbenchmarks — the 24-rep
// campaign wall-clock through the parallel and sequential engines,
// the full campaign-of-campaigns matrix (every service x workload x
// repetition flattened onto the shared scheduler pool, with a
// bit-identity check against the sequential engine), an adaptive
// sampling micro (the fixed 24-rep Cloud Drive campaign vs the
// antithetic sequential design stopped at the same achieved
// precision: repetitions spent, wall-clock, half-widths), the
// MeasureWindow path against the seed copy-and-rescan baseline, a
// memory micro (B/op, allocs/op via testing.Benchmark) of one large
// multi-MB repetition through the streaming engine vs a buffered
// trace, and a transport micro (ns and Sink.Record calls for a 16 MB
// loss-free transfer) of the closed-form engine vs the per-round
// event loop. scripts/bench.sh wraps it.
//
// Usage:
//
//	benchsnap [-out BENCH.json] [-reps N] [-seed N] [-commit SHA] [-skip-fig6]
//
// The snapshot stays a valid comparebench campaign file: unknown
// fields are ignored by its reader, so
//
//	comparebench -a BENCH_aaaa.json -b BENCH_bbbb.json
//
// reports simulated-metric regressions between two commits, while the
// micro section tracks how fast the engine produced them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// campaignMicro is one service's engine timing on the acceptance
// workload (24 repetitions of 100x10 kB).
type campaignMicro struct {
	Service          string  `json:"service"`
	ParallelNs       int64   `json:"parallel_ns"`
	SequentialNs     int64   `json:"sequential_ns"`
	ParallelSpeedupX float64 `json:"parallel_speedup_x"`
}

type measureMicro struct {
	OnePassNs int64   `json:"one_pass_ns"`
	SeedNs    int64   `json:"seed_ns"`
	SpeedupX  float64 `json:"speedup_x"`
}

// matrixMicro times the campaign-of-campaigns scheduler on the full
// Fig. 6 experiment matrix (every service x workload x repetition
// flattened onto one shared pool) against the forced-sequential
// engine, and records that both produced bit-identical results.
type matrixMicro struct {
	Workload     string  `json:"workload"`
	Cells        int     `json:"cells"`
	ParallelNs   int64   `json:"parallel_ns"`
	SequentialNs int64   `json:"sequential_ns"`
	SpeedupX     float64 `json:"parallel_speedup_x"`
	Identical    bool    `json:"identical"`
}

// memoryMicro is the allocation profile of one large (multi-MB)
// campaign repetition in each trace mode, via testing.Benchmark: the
// streaming engine folds packets at record time (O(flows) trace
// memory), the buffered engine retains the whole packet trace
// (O(packets)). SavedBytesPerOp is the per-repetition allocation the
// streaming pipeline removes; a future regression shows up here as
// the two columns converging.
type memoryMicro struct {
	Workload string `json:"workload"`
	// PacketsPerRep is the per-round packet count of one repetition;
	// RecordsPerRep is how many records the capture actually stores
	// once steady-state transfers collapse into span records.
	PacketsPerRep        int   `json:"packets_per_rep"`
	RecordsPerRep        int   `json:"records_per_rep"`
	FlowsPerRep          int   `json:"flows_per_rep"`
	StreamingBytesPerOp  int64 `json:"streaming_b_per_op"`
	StreamingAllocsPerOp int64 `json:"streaming_allocs_per_op"`
	BufferedBytesPerOp   int64 `json:"buffered_b_per_op"`
	BufferedAllocsPerOp  int64 `json:"buffered_allocs_per_op"`
	SavedBytesPerOp      int64 `json:"saved_b_per_op"`
}

// transportMicro times one large loss-free transfer through the
// closed-form transport engine against the per-round event loop it
// replaced (Dialer.ForceEventLoop), and counts the Sink.Record calls
// each needed — the O(bytes/BDP) -> O(1) collapse of the steady-state
// phase, straight off the engines. The engines are record-for-record
// equivalent (internal/tcpsim's equivalence tests pin it); only the
// cost of producing the records differs.
type transportMicro struct {
	Workload         string  `json:"workload"`
	AnalyticNs       int64   `json:"analytic_ns"`
	EventLoopNs      int64   `json:"event_loop_ns"`
	SpeedupX         float64 `json:"speedup_x"`
	AnalyticRecords  int64   `json:"analytic_records"`
	EventLoopRecords int64   `json:"event_loop_records"`
	RecordReductionX float64 `json:"record_reduction_x"`
}

// contentMicro times the content-generation floor on both engines:
// Fork (per-file child seeding) plus full materialisation through the
// descriptor pipeline into pooled buffers, for one repetition's worth
// of files. The legacy engine pays a 607-word lagged-Fibonacci init
// per Fork and a per-call math/rand byte loop; the PCG engine seeds
// with two SplitMix64 rounds and fills eight bytes per generator step.
type contentMicro struct {
	Workload     string  `json:"workload"`
	LegacyNs     int64   `json:"legacy_ns"`
	PCGNs        int64   `json:"pcg_ns"`
	SpeedupX     float64 `json:"speedup_x"`
	LegacyBPerOp int64   `json:"legacy_b_per_op"`
	PCGBPerOp    int64   `json:"pcg_b_per_op"`
}

// transportLossyMicro times one large lossy transfer through the
// analytic engine (geometric next-loss sampling, clean runs emitted
// as spans) against the per-round event loop: engine ns, Sink.Record
// calls and RNG draws per transfer. The path is a 2 Mb/s uplink (the
// WhatIfMobileUplink rate), where slices are small and the per-round
// engine pays one draw per ~2 segments — the regime the ROADMAP's
// episode schedules and loss matrices live in.
type transportLossyMicro struct {
	Workload         string  `json:"workload"`
	LossRate         float64 `json:"loss_rate"`
	AnalyticNs       int64   `json:"analytic_ns"`
	EventLoopNs      int64   `json:"event_loop_ns"`
	SpeedupX         float64 `json:"speedup_x"`
	AnalyticRecords  int64   `json:"analytic_records"`
	EventLoopRecords int64   `json:"event_loop_records"`
	RecordReductionX float64 `json:"record_reduction_x"`
	AnalyticDraws    int64   `json:"analytic_rng_draws"`
	EventLoopDraws   int64   `json:"event_loop_rng_draws"`
	DrawReductionX   float64 `json:"draw_reduction_x"`
}

// adaptiveMicro pins adaptive sampling's headline claim:
// at the precision the fixed 24-rep Cloud Drive campaign achieves,
// the antithetic sequential design stops with fewer repetitions and
// less wall-clock. TargetRelHW is the fixed run's achieved relative
// CI95 half-width — the bar the adaptive run must clear — and both
// runs are deterministic, so RepsSaved is a pinned number, not a
// sample.
type adaptiveMicro struct {
	Workload      string  `json:"workload"`
	FixedReps     int     `json:"fixed_reps"`
	FixedNs       int64   `json:"fixed_ns"`
	FixedRelHW    float64 `json:"fixed_rel_hw"`
	TargetRelHW   float64 `json:"target_rel_hw"`
	AdaptiveReps  int     `json:"adaptive_reps"`
	AdaptiveNs    int64   `json:"adaptive_ns"`
	AdaptiveRelHW float64 `json:"adaptive_rel_hw"`
	RepsSaved     int     `json:"reps_saved"`
	SpeedupX      float64 `json:"speedup_x"`
	TargetMet     bool    `json:"target_met"`
}

// fleetMicro pins the fleet engine's throughput and the sharded
// store's gain over a single global lock: one fleet day timed end to
// end (users/sec/core is the headline), the dedup-vs-population curve
// off FleetPopulationSweep, a bit-identity check of the sequential
// engine against the shared worker budget, and a concurrent PutHashed
// hammer on a 64-shard store vs the single-lock layout.
type fleetMicro struct {
	Workload        string  `json:"workload"`
	Users           int     `json:"users"`
	WallNs          int64   `json:"wall_ns"`
	UsersPerSecCore float64 `json:"users_per_sec_core"`
	DedupRatio      float64 `json:"dedup_ratio"`
	Identical       bool    `json:"identical"`

	// Allocation footprint of the hot path: heap bytes and mallocs
	// per simulated session over one sequential day, store and log
	// setup included (the same quantity the core allocation-ceiling
	// test gates).
	BPerSession      float64 `json:"b_per_session"`
	AllocsPerSession float64 `json:"allocs_per_session"`

	Populations []core.FleetPopulationPoint `json:"populations"`

	StoreHammer          string  `json:"store_hammer"`
	ShardedPutsPerSec    float64 `json:"sharded_puts_per_sec"`
	SingleLockPutsPerSec float64 `json:"single_lock_puts_per_sec"`
	ShardSpeedupX        float64 `json:"shard_speedup_x"`

	// HammerCurve is the full contention sweep behind the headline
	// pair: the same PutHashed mix at every (goroutines, shards)
	// combination, so a scaling regression shows where it starts, not
	// just at the endpoint.
	HammerCurve []hammerPoint `json:"hammer_curve"`
}

// hammerPoint is one cell of the store hammer sweep.
type hammerPoint struct {
	Goroutines int     `json:"goroutines"`
	Shards     int     `json:"shards"`
	PutsPerSec float64 `json:"puts_per_sec"`
}

type micro struct {
	GoMaxProcs       int                 `json:"go_max_procs"`
	CampaignWorkload string              `json:"campaign_workload"`
	Campaign         []campaignMicro     `json:"campaign"`
	Adaptive         adaptiveMicro       `json:"adaptive"`
	Matrix           matrixMicro         `json:"matrix"`
	MeasureWindow    measureMicro        `json:"measure_window"`
	Memory           memoryMicro         `json:"memory"`
	Transport        transportMicro      `json:"transport"`
	TransportLossy   transportLossyMicro `json:"transport_lossy"`
	Content          []contentMicro      `json:"content"`
	Fleet            fleetMicro          `json:"fleet"`
}

// snapshot is a core.Campaign plus the engine micro section; the
// embedded fields keep it readable by core.ReadCampaign.
type snapshot struct {
	core.Campaign
	Commit string `json:"commit,omitempty"`
	Micro  micro  `json:"micro"`
}

func main() {
	var (
		out      = flag.String("out", "", "output path (default stdout)")
		reps     = flag.Int("reps", 4, "repetitions per Fig. 6 workload in the embedded campaign")
		seed     = flag.Int64("seed", 42, "base random seed")
		commit   = flag.String("commit", "", "commit id recorded in the snapshot")
		skipFig6 = flag.Bool("skip-fig6", false, "skip the embedded Fig. 6 campaign (micro section only)")
	)
	flag.Parse()

	snap := snapshot{Commit: *commit}
	snap.Micro.GoMaxProcs = runtime.GOMAXPROCS(0)
	snap.Micro.CampaignWorkload = "24 reps x (100 x 10 kB)"

	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	for _, svc := range []string{"clouddrive", "dropbox"} {
		p, _ := client.ProfileFor(svc)
		par := minWall(3, func() { core.RunCampaign(p, batch, 24, *seed) })
		core.CampaignWorkers = 1
		seq := minWall(3, func() { core.RunCampaign(p, batch, 24, *seed) })
		core.CampaignWorkers = 0
		snap.Micro.Campaign = append(snap.Micro.Campaign, campaignMicro{
			Service:          svc,
			ParallelNs:       par.Nanoseconds(),
			SequentialNs:     seq.Nanoseconds(),
			ParallelSpeedupX: ratio(seq, par),
		})
	}

	snap.Micro.Adaptive = adaptiveMicroBench(*seed)

	// Campaign-of-campaigns matrix: all services, four workloads,
	// 4 repetitions each, flattened onto the shared scheduler pool vs
	// the forced-sequential engine.
	const matrixReps = 4
	profiles := client.Profiles()
	var parRes, seqRes []core.Fig6Result
	parWall := minWall(2, func() { parRes = core.Fig6Matrix(profiles, matrixReps, *seed) })
	core.CampaignWorkers = 1
	seqWall := minWall(2, func() { seqRes = core.Fig6Matrix(profiles, matrixReps, *seed) })
	core.CampaignWorkers = 0
	snap.Micro.Matrix = matrixMicro{
		Workload:     fmt.Sprintf("%d services x 4 workloads x %d reps", len(profiles), matrixReps),
		Cells:        len(profiles) * 4 * matrixReps,
		ParallelNs:   parWall.Nanoseconds(),
		SequentialNs: seqWall.Nanoseconds(),
		SpeedupX:     ratio(seqWall, parWall),
		Identical:    reflect.DeepEqual(parRes, seqRes),
	}

	tb, t0, total := syncedTestbed(client.CloudDrive(), *seed)
	onePass := minWall(5, func() {
		for i := 0; i < 200; i++ {
			core.MeasureWindow(tb, t0, total)
		}
	})
	seedStyle := minWall(5, func() {
		for i := 0; i < 200; i++ {
			seedMeasureWindow(tb, t0, total)
		}
	})
	snap.Micro.MeasureWindow = measureMicro{
		OnePassNs: onePass.Nanoseconds() / 200,
		SeedNs:    seedStyle.Nanoseconds() / 200,
		SpeedupX:  ratio(seedStyle, onePass),
	}

	snap.Micro.Memory = memoryMicroBench(*seed)
	snap.Micro.Fleet = fleetMicroBench(*seed)
	snap.Micro.Transport = transportMicroBench()
	snap.Micro.TransportLossy = transportLossyMicroBench()
	snap.Micro.Content = []contentMicro{
		contentMicroBench("100 x 10 kB", 100, 10_000),
		contentMicroBench("4 x 4 MB", 4, 4<<20),
	}

	if !*skipFig6 {
		v, _ := core.VantageByName("twente")
		snap.Campaign = core.RunFullCampaign(v, *reps, *seed)
	} else {
		snap.Campaign = core.Campaign{
			Tool: core.ToolVersion, Vantage: "twente", Seed: *seed, Reps: *reps,
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// adaptiveMicroBench runs the fixed-24 Cloud Drive campaign, takes
// its achieved precision as the target, and times the antithetic
// adaptive run getting there.
func adaptiveMicroBench(seed int64) adaptiveMicro {
	p := client.CloudDrive()
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}

	var fixed core.Summary
	fixedWall := minWall(3, func() { fixed = core.RunCampaign(p, batch, 24, seed) })

	rule := core.StopRule{TargetRelHW: fixed.AchievedRelHW, MinReps: 8, MaxReps: 96}
	vr := core.VarianceReduction{Antithetic: true}
	var adaptive core.Summary
	adaptiveWall := minWall(3, func() { adaptive = core.RunCampaignAdaptive(p, batch, rule, vr, seed) })

	return adaptiveMicro{
		Workload:      "clouddrive, 100 x 10 kB, fixed 24 reps vs antithetic adaptive at equal precision",
		FixedReps:     fixed.RepsUsed,
		FixedNs:       fixedWall.Nanoseconds(),
		FixedRelHW:    fixed.AchievedRelHW,
		TargetRelHW:   rule.TargetRelHW,
		AdaptiveReps:  adaptive.RepsUsed,
		AdaptiveNs:    adaptiveWall.Nanoseconds(),
		AdaptiveRelHW: adaptive.AchievedRelHW,
		RepsSaved:     fixed.RepsUsed - adaptive.RepsUsed,
		SpeedupX:      ratio(fixedWall, adaptiveWall),
		TargetMet:     adaptive.AchievedRelHW <= rule.TargetRelHW,
	}
}

// memoryMicroBench measures B/op and allocs/op of one large multi-MB
// campaign repetition through the streaming engine (core.RunSync) and
// through an identical repetition on a buffered trace. Cloud Drive
// carries no compression capability, so the numbers isolate the
// engine — content generation, transport simulation and the trace
// layer — rather than DEFLATE.
func memoryMicroBench(seed int64) memoryMicro {
	p := client.CloudDrive()
	batch := workload.Batch{Count: 4, Size: 4 << 20, Kind: workload.Binary}

	bufferedRep := func() *core.Testbed {
		tb := core.NewTestbed(p, seed, core.DefaultJitter)
		start := tb.Settle()
		t0 := tb.Clock.Now()
		batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done)
		core.MeasureWindow(tb, t0, batch.Total())
		return tb
	}

	stream := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.RunSync(p, batch, seed, core.DefaultJitter)
		}
	})
	var tb *core.Testbed // trace shape for context, from the last iteration
	buffered := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb = bufferedRep()
		}
	})

	return memoryMicro{
		Workload:             fmt.Sprintf("%d x %d MB", batch.Count, batch.Size>>20),
		PacketsPerRep:        tb.Cap.ExpandedLen(),
		RecordsPerRep:        tb.Cap.Len(),
		FlowsPerRep:          tb.Cap.NumFlows(),
		StreamingBytesPerOp:  stream.AllocedBytesPerOp(),
		StreamingAllocsPerOp: stream.AllocsPerOp(),
		BufferedBytesPerOp:   buffered.AllocedBytesPerOp(),
		BufferedAllocsPerOp:  buffered.AllocsPerOp(),
		SavedBytesPerOp:      buffered.AllocedBytesPerOp() - stream.AllocedBytesPerOp(),
	}
}

// contentMicroBench measures one repetition's content generation —
// count files of size bytes, each Fork-seeded and materialised through
// the descriptor pipeline into pooled buffers — on the legacy and PCG
// engines. This was ~50% of a Cloud Drive campaign repetition before
// the descriptor pipeline; the micro tracks that the floor stays gone.
func contentMicroBench(label string, count int, size int64) contentMicro {
	run := func(newRNG func(int64) *sim.RNG) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := newRNG(42)
				for j := 0; j < count; j++ {
					d := workload.Describe(rng.Fork(int64(j)), workload.Binary, size)
					buf := d.AppendTo(workload.GetBuffer(size))
					workload.PutBuffer(buf)
				}
			}
		})
	}
	pcg := run(sim.NewRNG)
	legacy := run(sim.NewLegacyRNG)
	m := contentMicro{
		Workload:     label,
		LegacyNs:     legacy.NsPerOp(),
		PCGNs:        pcg.NsPerOp(),
		LegacyBPerOp: legacy.AllocedBytesPerOp(),
		PCGBPerOp:    pcg.AllocedBytesPerOp(),
	}
	if pcg.NsPerOp() > 0 {
		m.SpeedupX = float64(legacy.NsPerOp()) / float64(pcg.NsPerOp())
	}
	return m
}

// fleetMicroBench times one 10k-user service day through the fleet
// engine, sweeps the dedup ratio over population sizes, checks the
// parallel day is bit-identical to the sequential one, and hammers
// PutHashed from GOMAXPROCS×2 goroutines against the 64-shard and
// single-lock store layouts.
func fleetMicroBench(seed int64) fleetMicro {
	const users = 10_000
	cfg := func() core.FleetConfig { return core.FleetConfig{Users: users, Seed: seed} }

	var res core.FleetResult
	wall := minWall(2, func() { res = core.RunFleet(cfg(), 0) })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	seqRes := core.RunFleet(cfg(), 1)
	runtime.ReadMemStats(&after)

	m := fleetMicro{
		Workload:   "10k users x 1 service day, default class mix",
		Users:      users,
		WallNs:     wall.Nanoseconds(),
		DedupRatio: res.DedupRatio,
		Identical:  reflect.DeepEqual(res, seqRes),
		Populations: core.FleetPopulationSweep(
			core.FleetConfig{Seed: seed}, []int{1000, 4000, 16000}, 0),
	}
	if secs := wall.Seconds(); secs > 0 {
		m.UsersPerSecCore = float64(users) / secs / float64(runtime.GOMAXPROCS(0))
	}
	if s := seqRes.Sessions; s > 0 {
		m.BPerSession = float64(after.TotalAlloc-before.TotalAlloc) / float64(s)
		m.AllocsPerSession = float64(after.Mallocs-before.Mallocs) / float64(s)
	}

	// Store hammer: the same concurrent PutHashed mix swept over
	// goroutine counts and lock layouts. 70% of ops hit a small
	// contended hash set, the rest are per-goroutine unique — the
	// fleet's popular-catalog access shape.
	const (
		opsPerG = 200_000
		hotSet  = 512
	)
	hammer := func(goroutines, shards int) float64 {
		hot := make([]dedup.Hash, hotSet)
		rng := sim.NewRNG(seed)
		for i := range hot {
			rng.Fill(hot[i][:])
		}
		s := dedup.NewStoreShardedSized(shards, hotSet+goroutines*256)
		// Settle the heap first: the hammer follows allocation-heavy
		// micros in the same process, and a GC cycle landing inside
		// one layout's timing but not the other's would skew the
		// speedup ratio.
		runtime.GC()
		wall := minWall(3, func() {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cold := make([]dedup.Hash, 256)
					rng := sim.NewRNG(seed + int64(g) + 1)
					for i := range cold {
						rng.Fill(cold[i][:])
					}
					for i := 0; i < opsPerG; i++ {
						if i%10 < 7 {
							s.PutHashed(hot[(i*13+g)%hotSet], 100)
						} else {
							s.PutHashed(cold[i%len(cold)], 10)
						}
					}
				}(g)
			}
			wg.Wait()
		})
		return float64(goroutines*opsPerG) / wall.Seconds()
	}
	for _, goroutines := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 16, 64} {
			m.HammerCurve = append(m.HammerCurve, hammerPoint{
				Goroutines: goroutines,
				Shards:     shards,
				PutsPerSec: hammer(goroutines, shards),
			})
		}
	}
	// Headline pair: the 8-goroutine endpoint of the curve, kept as
	// flat fields so dashboards and trend tooling read one number.
	m.StoreHammer = fmt.Sprintf("{1,2,4,8} goroutines x %dk PutHashed x {1,16,64} shards, 70%% on %d hot hashes",
		opsPerG/1000, hotSet)
	for _, p := range m.HammerCurve {
		if p.Goroutines == 8 && p.Shards == 64 {
			m.ShardedPutsPerSec = p.PutsPerSec
		}
		if p.Goroutines == 8 && p.Shards == 1 {
			m.SingleLockPutsPerSec = p.PutsPerSec
		}
	}
	if m.SingleLockPutsPerSec > 0 {
		m.ShardSpeedupX = m.ShardedPutsPerSec / m.SingleLockPutsPerSec
	}
	return m
}

// countingSink counts Sink.Record calls and discards the records: it
// isolates the engine's own cost from any trace retention.
type countingSink struct {
	flows   int
	records int64
}

func (s *countingSink) OpenFlow(trace.FlowKey, string, time.Time) trace.FlowID {
	s.flows++
	return trace.FlowID(s.flows - 1)
}
func (s *countingSink) Record(trace.Packet) { s.records++ }

// transportMicroBench measures a 16 MB loss-free upstream transfer on
// a 30 Mb/s mid-RTT path (a Wuala-Zurich-like data center) through
// the closed-form engine and through the per-round event loop: ns per
// transfer and Sink.Record calls per transfer.
func transportMicroBench() transportMicro {
	const payload = 16 << 20
	// Topology built once: the timed region is dial + transfer, i.e.
	// the transport engine itself.
	n := netem.New(sim.NewClock(), sim.NewRNG(1))
	clientHost := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
		Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
		Coord: geo.Coord{Lat: 47.38, Lon: 8.54}, RateBps: 30e6})
	run := func(force bool) (time.Duration, int64) {
		var sink countingSink
		var rec int64
		wall := minWall(7, func() {
			d := tcpsim.NewDialer(n, &sink, clientHost)
			d.ForceEventLoop = force
			before := sink.records
			c := d.Dial(server, "storage.sim", sim.Epoch, tcpsim.DefaultTLS)
			c.Send(payload)
			rec = sink.records - before
		})
		return wall, rec
	}
	analyticWall, analyticRec := run(false)
	eventWall, eventRec := run(true)
	m := transportMicro{
		Workload:         "16 MB upstream, 30 Mb/s, loss-free",
		AnalyticNs:       analyticWall.Nanoseconds(),
		EventLoopNs:      eventWall.Nanoseconds(),
		SpeedupX:         ratio(eventWall, analyticWall),
		AnalyticRecords:  analyticRec,
		EventLoopRecords: eventRec,
	}
	if analyticRec > 0 {
		m.RecordReductionX = float64(eventRec) / float64(analyticRec)
	}
	return m
}

// transportLossyMicroBench measures a 16 MB upstream transfer at 2%
// segment loss on a 2 Mb/s mobile-uplink path through the analytic
// engine and through the per-round event loop. The topology (and its
// RNG seed) is rebuilt per run so both engines sample the loss
// process from the same stream; record and draw counts come from the
// final timed run of each engine.
func transportLossyMicroBench() transportLossyMicro {
	const (
		payload  = 16 << 20
		lossRate = 0.02
	)
	run := func(force bool) (time.Duration, int64, int64) {
		var records, draws int64
		wall := minWall(7, func() {
			n := netem.New(sim.NewClock(), sim.NewRNG(1))
			n.LossRate = lossRate
			clientHost := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
				Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
			server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
				Coord: geo.Coord{Lat: 47.38, Lon: 8.54}, RateBps: 2e6})
			var sink countingSink
			d := tcpsim.NewDialer(n, &sink, clientHost)
			d.ForceEventLoop = force
			c := d.Dial(server, "storage.sim", sim.Epoch, tcpsim.DefaultTLS)
			c.Send(payload)
			records = sink.records
			draws = d.LossDraws()
		})
		return wall, records, draws
	}
	analyticWall, analyticRec, analyticDraws := run(false)
	eventWall, eventRec, eventDraws := run(true)
	m := transportLossyMicro{
		Workload:         "16 MB upstream, 2 Mb/s, 2% loss",
		LossRate:         lossRate,
		AnalyticNs:       analyticWall.Nanoseconds(),
		EventLoopNs:      eventWall.Nanoseconds(),
		SpeedupX:         ratio(eventWall, analyticWall),
		AnalyticRecords:  analyticRec,
		EventLoopRecords: eventRec,
		AnalyticDraws:    analyticDraws,
		EventLoopDraws:   eventDraws,
	}
	if analyticRec > 0 {
		m.RecordReductionX = float64(eventRec) / float64(analyticRec)
	}
	if analyticDraws > 0 {
		m.DrawReductionX = float64(eventDraws) / float64(analyticDraws)
	}
	return m
}

// minWall returns the fastest of n wall-clock timings of fn.
func minWall(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// syncedTestbed simulates one full 100x10 kB upload and returns the
// testbed ready for measurement.
func syncedTestbed(p client.Profile, seed int64) (*core.Testbed, time.Time, int64) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	tb := core.NewTestbed(p, seed, core.DefaultJitter)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	return tb, t0, batch.Total()
}

// seedMeasureWindow replicates the seed measurement path scan for
// scan — a copying window, then one independent full pass (each with
// its own flow-set materialisation) per metric — so every snapshot
// re-measures the engine against the same baseline on the same
// hardware. internal/core's TestSeedMeasureWindowReference pins an
// identical reference against the production MeasureWindow.
func seedMeasureWindow(tb *core.Testbed, t0 time.Time, contentBytes int64) core.Metrics {
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

	var m core.Metrics
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
	for s, i := set(trace.AllFlows), 0; i < len(packets); i++ {
		if p := packets[i]; s[p.Flow] {
			m.TotalTraffic += p.Wire + p.AckWire
		}
	}
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
