package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/workload"
)

// size scales the op of every workload. fullSize is what BENCHMARK.json
// measures; toySize keeps the package test fast.
type size struct {
	reps    int // repetitions per fig6 and clouddrive_loss cell
	fig4Max int // Fig. 4 sizes per modification; 0 keeps all
	users   int // fleet_day population
}

var (
	fullSize = size{reps: core.DefaultReps, users: 100_000}
	toySize  = size{reps: 2, fig4Max: 2, users: 2000}
)

// workloadSpec is one benchmark workload. An op is one call into the public
// top-level API; a run repeats ops in a closed loop, op k on seed+k.
type workloadSpec struct {
	name string
	// items is the work one op completes: campaign cells (one
	// repetition on a fresh testbed each) or fleet users.
	items func(sz size) int
	// input builds what the caller hands an op besides its seed, before
	// the op's timing starts, so that building the first op's input is
	// part of set-up. nil when the public call builds everything itself.
	input func(sz size) any
	// run performs one op through the public API.
	run func(sz size, seed int64, in any) any
	// traced performs the same op from cells rebuilt out of public
	// constructors, timing each layer into tr. Its result must digest
	// exactly like run's.
	traced func(sz size, seed int64, in any, tr *tracer) any
	// check returns the invariant violations of one op's result.
	check func(sz size, v any) []string
}

var workloads = []*workloadSpec{
	{
		name:   "fig6",
		items:  func(sz size) int { return len(client.Profiles()) * len(fig6Batches()) * sz.reps },
		run:    func(sz size, seed int64, _ any) any { return core.Fig6Matrix(client.Profiles(), sz.reps, seed) },
		traced: tracedFig6,
		check:  checkFig6,
	},
	{
		name:   "delta_edit",
		items:  func(sz size) int { return len(client.Profiles()) * fig4Cells(sz) },
		run:    runDelta,
		traced: tracedDelta,
		check:  checkDelta,
	},
	{
		name:  "clouddrive_loss",
		items: func(sz size) int { return len(lossRates) * sz.reps },
		run: func(sz size, seed int64, _ any) any {
			return core.LossSweep([]client.Profile{client.CloudDrive()}, lossRates, lossBatch, core.Twente, sz.reps, seed)
		},
		traced: tracedLoss,
		check:  checkLoss,
	},
	{
		name:  "fleet_day",
		items: func(sz size) int { return sz.users },
		input: func(sz size) any { return fleetStore(sz) },
		run:   func(sz size, seed int64, in any) any { return runFleet(sz, seed, in.(*dedup.Store), nil) },
		traced: func(sz size, seed int64, in any, tr *tracer) any {
			return tr.op(func() any { return runFleet(sz, seed, in.(*dedup.Store), tr) })
		},
		check: checkFleet,
	},
}

// newInput builds an op's input, or returns nil for a workload without.
func (w *workloadSpec) newInput(sz size) any {
	if w.input == nil {
		return nil
	}
	return w.input(sz)
}

func lookupWorkload(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func fig6Batches() []workload.Batch { return workload.StandardBenchmarks(workload.Binary) }

// The cloudbench fig4 set: append and random-position edits of
// fig4Added bytes.
var fig4Mods = []core.ModKind{core.ModAppend, core.ModRandom}

const fig4Added = 100 << 10

// fig4Point is one Fig. 4 cell of one service: a modification (an index
// into fig4Mods) at one file size, with the size's index in its series.
type fig4Point struct {
	mod   int
	index int
	size  int64
}

// fig4Cells counts the per-service cells of the fig4 set: the append
// series and the random series, each over its Fig4Sizes prefix.
func fig4Cells(sz size) int {
	n := 0
	for _, mod := range fig4Mods {
		n += len(fig4Sizes(sz, mod))
	}
	return n
}

func fig4Sizes(sz size, mod core.ModKind) []int64 {
	s := core.Fig4Sizes(mod)
	if sz.fig4Max > 0 && sz.fig4Max < len(s) {
		s = s[:sz.fig4Max]
	}
	return s
}

// runDelta is the cloudbench fig4 set: every service's append and
// random-insert series, fanned out per service as cmd/cloudbench does.
// Series are ordered modification-major, service-minor.
func runDelta(sz size, seed int64, _ any) any {
	profiles := client.Profiles()
	var out [][]core.VolumePoint
	for _, mod := range fig4Mods {
		out = append(out, core.RunN(len(profiles), 0, func(i int) []core.VolumePoint {
			return core.Fig4DeltaSeries(profiles[i], mod, fig4Sizes(sz, mod), fig4Added, seed)
		})...)
	}
	return out
}

// The clouddrive_loss op: Fig. 3's 100x10kB batch on Cloud Drive from
// the paper's vantage, on a loss-free path and at the default loss rates.
var (
	lossRates = append([]float64{0}, core.DefaultLossRates...)
	lossBatch = workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
)

// fleetOutcome is one fleet day plus the counters of its fresh store.
type fleetOutcome struct {
	Result core.FleetResult
	Puts   int64
	Hits   int64
}

// fleetStore is a fleet day's input: a fresh store, sized for the day
// as cmd/fleetbench sizes it.
func fleetStore(sz size) *dedup.Store {
	return dedup.NewStoreShardedSized(dedup.DefaultShards, core.FleetChunkHint(sz.users, 0))
}

// runFleet runs one fleet day on a store built by the caller, as
// cmd/fleetbench does. With a tracer it times the day as one cell.
func runFleet(sz size, seed int64, store *dedup.Store, tr *tracer) fleetOutcome {
	var c *cell
	if tr != nil {
		c = tr.startCell("fleet_day")
	}
	cfg := core.FleetConfig{Users: sz.users, Seed: seed, Store: store}
	out := fleetOutcome{Result: core.RunFleet(cfg, 0)}
	out.Puts, out.Hits = cfg.Store.Puts(), cfg.Store.Hits()
	if c != nil {
		c.counts.Puts, c.counts.Hits = out.Puts, out.Hits
		c.counts.FleetSessions, c.counts.FleetChunks = out.Result.Sessions, out.Result.Chunks
		c.finish()
	}
	return out
}

// digest is the SHA-256 of an op's result in its JSON encoding, which
// is deterministic for these types (struct fields in order, no maps).
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkMetrics holds one campaign repetition to the invariants every
// cell must satisfy.
func checkMetrics(where string, m core.Metrics) []string {
	var out []string
	if m.Completion <= 0 {
		out = append(out, fmt.Sprintf("%s: completion %v not positive", where, m.Completion))
	}
	if m.StorageUp > m.TotalTraffic {
		out = append(out, fmt.Sprintf("%s: storage upload %d exceeds total traffic %d", where, m.StorageUp, m.TotalTraffic))
	}
	if m.Connections < 1 {
		out = append(out, fmt.Sprintf("%s: %d connections", where, m.Connections))
	}
	return out
}

// checkSummary is checkMetrics for a summarized cell: the public API
// returns per-cell summaries, so the invariants apply to their means and
// medians (the traced run checks every repetition).
func checkSummary(where string, s core.Summary, reps int) []string {
	var out []string
	if s.RepsUsed != reps {
		out = append(out, fmt.Sprintf("%s: %d repetitions, want %d", where, s.RepsUsed, reps))
	}
	if s.MeanCompletion <= 0 || s.MedianCompletion <= 0 {
		out = append(out, fmt.Sprintf("%s: completion %v (median %v) not positive", where, s.MeanCompletion, s.MedianCompletion))
	}
	if s.MeanStorageUp > s.MeanTotalTraffic {
		out = append(out, fmt.Sprintf("%s: storage upload %d exceeds total traffic %d", where, s.MeanStorageUp, s.MeanTotalTraffic))
	}
	if s.MeanConnections < 1 {
		out = append(out, fmt.Sprintf("%s: %.2f connections", where, s.MeanConnections))
	}
	return out
}

func checkFig6(sz size, v any) []string {
	rs := v.([]core.Fig6Result)
	profiles := client.Profiles()
	if len(rs) != len(profiles) {
		return []string{fmt.Sprintf("fig6: %d services, want %d", len(rs), len(profiles))}
	}
	var out []string
	for si, r := range rs {
		if r.Service != profiles[si].Service || len(r.Summaries) != len(fig6Batches()) {
			out = append(out, fmt.Sprintf("fig6: result %d is %s with %d summaries", si, r.Service, len(r.Summaries)))
			continue
		}
		for wi, s := range r.Summaries {
			out = append(out, checkSummary(fmt.Sprintf("fig6 %s %s", r.Service, r.Workloads[wi]), s, sz.reps)...)
		}
	}
	return out
}

func checkDelta(sz size, v any) []string {
	series := v.([][]core.VolumePoint)
	profiles := client.Profiles()
	if len(series) != len(fig4Mods)*len(profiles) {
		return []string{fmt.Sprintf("delta_edit: %d series, want %d", len(series), len(fig4Mods)*len(profiles))}
	}
	var out []string
	for i, pts := range series {
		mod, svc := fig4Mods[i/len(profiles)], profiles[i%len(profiles)].Service
		sizes := fig4Sizes(sz, mod)
		if len(pts) != len(sizes) {
			out = append(out, fmt.Sprintf("delta_edit %s %s: %d points, want %d", svc, mod, len(pts), len(sizes)))
			continue
		}
		for j, p := range pts {
			out = append(out, checkVolume(fmt.Sprintf("delta_edit %s %s", svc, mod), p, sizes[j], fig4Added)...)
		}
	}
	return out
}

// checkVolume bounds one Fig. 4 point: the edit must upload something,
// and no more than twice the whole modified file (a full re-upload plus
// protocol overhead stays far below that).
func checkVolume(where string, p core.VolumePoint, size, added int64) []string {
	if p.FileSize != size {
		return []string{fmt.Sprintf("%s: point at %d bytes, want %d", where, p.FileSize, size)}
	}
	if p.Upload <= 0 || p.Upload > 2*(size+added) {
		return []string{fmt.Sprintf("%s %d: upload %d outside (0, %d]", where, size, p.Upload, 2*(size+added))}
	}
	return nil
}

func checkLoss(sz size, v any) []string {
	cells := v.([]core.LossCell)
	if len(cells) != len(lossRates) {
		return []string{fmt.Sprintf("clouddrive_loss: %d cells, want %d", len(cells), len(lossRates))}
	}
	var out []string
	for i, c := range cells {
		if c.LossRate != lossRates[i] || c.Service != client.CloudDrive().Service {
			out = append(out, fmt.Sprintf("clouddrive_loss: cell %d is %s at %v", i, c.Service, c.LossRate))
			continue
		}
		out = append(out, checkSummary(fmt.Sprintf("clouddrive_loss %v", c.LossRate), c.Summary, sz.reps)...)
	}
	return out
}

func checkFleet(sz size, v any) []string {
	o := v.(fleetOutcome)
	r := o.Result
	var out []string
	if r.Users != sz.users || r.Sessions <= 0 {
		out = append(out, fmt.Sprintf("fleet_day: %d users with %d sessions, want %d users", r.Users, r.Sessions, sz.users))
	}
	if r.WireBytes != r.ContentBytes-r.DedupBytes+r.ManifestBytes {
		out = append(out, fmt.Sprintf("fleet_day: wire %d != content %d - dedup %d + manifest %d",
			r.WireBytes, r.ContentBytes, r.DedupBytes, r.ManifestBytes))
	}
	var sessions, wire int64
	for _, b := range r.Buckets {
		sessions += b.Sessions
		wire += b.WireBytes
	}
	if sessions != r.Sessions || wire != r.WireBytes {
		out = append(out, fmt.Sprintf("fleet_day: buckets sum to %d sessions and %d wire bytes, totals %d and %d",
			sessions, wire, r.Sessions, r.WireBytes))
	}
	if o.Puts != int64(r.UniqueChunks) {
		out = append(out, fmt.Sprintf("fleet_day: %d store puts != %d unique chunks", o.Puts, r.UniqueChunks))
	}
	return out
}
