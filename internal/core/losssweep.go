package core

import (
	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/workload"
)

// The paper's Sect. 5 long-distance results and the WhatIfLossyPath
// counterfactual live on lossy paths. With the analytic lossy engine
// (internal/tcpsim/loss.go) a lossy repetition costs O(losses), so a
// full service x loss-rate matrix is as affordable as any other
// campaign layer. This file is that matrix: reproducible loss curves
// from the CLI (cloudbench -loss) and a lossy section of the
// persisted campaign, so baselines pin the lossy engine's behaviour
// the way Fig. 6 pins the clean one.

// LossCell is one point of a loss sweep: one service's summarized
// repetitions of a fixed workload at one segment-loss rate.
type LossCell struct {
	Service  string         `json:"service"`
	LossRate float64        `json:"loss_rate"`
	Workload workload.Batch `json:"workload"`
	Summary  Summary        `json:"summary"`
}

// DefaultLossRates is the loss axis used by the campaign's lossy
// section and cloudbench's default sweep — the rates the equivalence
// suite pins (0.5%, 2%, 8%).
var DefaultLossRates = []float64{0.005, 0.02, 0.08}

// DefaultLossBatch is the loss-sweep workload: one 1 MB upload, deep
// enough to leave slow start on every profile path yet cheap enough
// to repeat across the full matrix.
var DefaultLossBatch = workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}

// lossSweepSeed derives the seed of one (service, rate, repetition)
// cell: a per-cell base spread by distinct primes, repetitions spread
// by campaignSeed — the same index→seed discipline as fig6Seed.
func lossSweepSeed(seed int64, si, ri, rep int) int64 {
	return campaignSeed(seed+int64(si)*1000003+int64(ri)*10007, rep)
}

// LossSweep runs the service x loss-rate matrix for one workload from
// the given vantage: reps repetitions per cell (reps <= 0 means
// DefaultReps), the whole matrix in one flat round on the shared
// scheduler pool like every other campaign layer. Results are ordered
// service-major, rate-minor, and are bit-identical at any worker
// count.
func LossSweep(profiles []client.Profile, rates []float64, batch workload.Batch, v Vantage, reps int, seed int64) []LossCell {
	return lossSweep(profiles, rates, batch, v, fixedRule(reps), VarianceReduction{}, seed)
}

// LossSweepAdaptive is LossSweep under a stopping rule. With vr.CRN
// every service draws the same per-(rate, repetition) seed stream, so
// service-vs-service deltas at one loss rate are paired comparisons.
func LossSweepAdaptive(profiles []client.Profile, rates []float64, batch workload.Batch, v Vantage, rule StopRule, vr VarianceReduction, seed int64) []LossCell {
	return lossSweep(profiles, rates, batch, v, rule.withDefaults(vr), vr, seed)
}

// lossSweep is the loss-sweep body: one cell per (service, rate).
func lossSweep(profiles []client.Profile, rates []float64, batch workload.Batch, v Vantage, rule StopRule, vr VarianceReduction, seed int64) []LossCell {
	host := func() *netem.Host { return vantageHost(v) }
	var cells []syncCell
	for si, p := range profiles {
		seedSvc := si
		if vr.CRN {
			seedSvc = 0
		}
		for ri, rate := range rates {
			cells = append(cells, syncCell{p: p, batch: batch, host: host, jitter: DefaultJitter, loss: rate,
				seed: func(rep int) int64 { return lossSweepSeed(seed, seedSvc, ri, rep) }})
		}
	}
	out := make([]LossCell, len(cells))
	for i, s := range summarizeCells(cells, rule, vr) {
		out[i] = LossCell{Service: cells[i].p.Service, LossRate: cells[i].loss, Workload: batch, Summary: s}
	}
	return out
}
