package core

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Vantage is a place the test computer can run from. The paper
// benchmarks "taking the perspective of users connected from Europe"
// (Twente) and explicitly wants "to compare results from different
// locations" — this type is that extension point.
type Vantage struct {
	Name  string
	Coord geo.Coord
}

// Twente is the paper's vantage.
var Twente = Vantage{Name: "twente", Coord: TwenteCoord}

// VantageByName resolves a vantage from a city name or IATA code in
// the landmark database ("Seattle", "sea"), or "twente".
func VantageByName(name string) (Vantage, bool) {
	if strings.EqualFold(name, "twente") || name == "" {
		return Twente, true
	}
	if l, ok := geo.LookupAirport(name); ok {
		return Vantage{Name: strings.ToLower(l.City), Coord: l.Coord}, true
	}
	for _, l := range geo.Airports() {
		if strings.EqualFold(l.City, name) {
			return Vantage{Name: strings.ToLower(l.City), Coord: l.Coord}, true
		}
	}
	return Vantage{}, false
}

// NewTestbedAt builds a buffered testbed with the test computer at an
// arbitrary vantage.
func NewTestbedAt(p client.Profile, spec cloud.Spec, v Vantage, seed int64, jitter float64) *Testbed {
	return assembleTestbed(p, spec, vantageHost(v), sim.NewRNG(seed), jitter, false)
}

// vantageHost is a test computer placed at an arbitrary vantage.
func vantageHost(v Vantage) *netem.Host {
	return &netem.Host{
		Name:  fmt.Sprintf("testpc.%s.sim", v.Name),
		Addr:  "198.51.100.1",
		Coord: v.Coord,
	}
}

// RunSyncLossy is RunSync from an arbitrary vantage over a path with
// the given segment-loss rate (0 for a clean path). Like RunSync it
// streams the trace, so every campaign cell shares the O(flows)
// memory profile. It panics unless loss is in [0, 1) and jitter is
// finite and non-negative (netem.CheckPath).
func RunSyncLossy(p client.Profile, batch workload.Batch, v Vantage, seed int64, jitter, loss float64) Metrics {
	return syncCell{p: p, batch: batch, host: func() *netem.Host { return vantageHost(v) },
		jitter: jitter, loss: loss}.runOnce(seed)
}

// LocationCell is one (service, vantage) measurement of a location
// study.
type LocationCell struct {
	Service string
	Vantage string
	Metrics Metrics
}

// LocationStudy benchmarks every service from every vantage with the
// same workload — the comparison the paper's public-tool release was
// meant to enable. Single repetition per cell (the fixed preset at
// one rep), jitter-free (location effects dwarf noise), every cell on
// the shared seed; results are bit-identical at any worker count.
func LocationStudy(batch workload.Batch, vantages []Vantage, seed int64) []LocationCell {
	cells := locationCells(batch, vantages, 0, func(int, int, int) int64 { return seed })
	runs, _ := runCells(cells, fixedRule(1), VarianceReduction{})
	out := make([]LocationCell, len(runs))
	for i, r := range runs {
		out[i] = LocationCell{Service: cells[i].p.Service, Vantage: vantages[i%len(vantages)].Name, Metrics: r[0]}
	}
	return out
}

// LocationSummary is one (service, vantage) cell of an adaptive
// location study: a full Summary with achieved precision, where the
// single-shot LocationStudy reports one jitter-free repetition.
type LocationSummary struct {
	Service string
	Vantage string
	Summary Summary
}

// locationSeed spreads location-study cells across the seed space;
// with vr.CRN the service term is dropped so every service faces the
// same noise at each vantage.
func locationSeed(seed int64, si, vi int, crn bool) int64 {
	base := seed + int64(vi)*500009
	if !crn {
		base += int64(si) * 1000003
	}
	return base
}

// LocationStudyAdaptive benchmarks every service from every vantage
// under a stopping rule. Unlike the single-shot LocationStudy it
// repeats with the campaign jitter (DefaultJitter) — an adaptive cell
// without dispersion would trivially stop at MinReps — and reports
// per-cell summaries with achieved precision.
func LocationStudyAdaptive(batch workload.Batch, vantages []Vantage, rule StopRule, vr VarianceReduction, seed int64) []LocationSummary {
	cells := locationCells(batch, vantages, DefaultJitter, func(si, vi, rep int) int64 {
		return campaignSeed(locationSeed(seed, si, vi, vr.CRN), rep)
	})
	out := make([]LocationSummary, len(cells))
	for i, s := range summarizeCells(cells, rule.withDefaults(vr), vr) {
		out[i] = LocationSummary{Service: cells[i].p.Service, Vantage: vantages[i%len(vantages)].Name, Summary: s}
	}
	return out
}

// locationCells is the service x vantage matrix of a location study,
// service-major; seed maps (service, vantage, rep) to a repetition
// seed.
func locationCells(batch workload.Batch, vantages []Vantage, jitter float64, seed func(si, vi, rep int) int64) []syncCell {
	var cells []syncCell
	for si, p := range client.Profiles() {
		for vi, v := range vantages {
			cells = append(cells, syncCell{p: p, batch: batch, jitter: jitter,
				host: func() *netem.Host { return vantageHost(v) },
				seed: func(rep int) int64 { return seed(si, vi, rep) }})
		}
	}
	return cells
}

// LocationReport renders a location study as a service x vantage
// completion-time table.
func LocationReport(cells []LocationCell, vantages []Vantage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "service")
	for _, v := range vantages {
		fmt.Fprintf(&b, "%14s", v.Name)
	}
	b.WriteByte('\n')
	bySvc := map[string]map[string]Metrics{}
	var order []string
	for _, c := range cells {
		if bySvc[c.Service] == nil {
			bySvc[c.Service] = map[string]Metrics{}
			order = append(order, c.Service)
		}
		bySvc[c.Service][c.Vantage] = c.Metrics
	}
	for _, svc := range order {
		fmt.Fprintf(&b, "%-14s", displayName(svc))
		for _, v := range vantages {
			fmt.Fprintf(&b, "%13.2fs", bySvc[svc][v.Name].Completion.Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
