package core

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/geo"
	"repro/internal/netem"
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

// LocationSummary is one (service, vantage) cell of a location study:
// the summarized repetitions of one service's workload from one
// vantage.
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

// LocationStudy benchmarks every profile from every vantage with the
// same workload — the comparison the paper's public-tool release was
// meant to enable: reps repetitions per cell (reps <= 0 means
// DefaultReps) with the campaign jitter, the whole matrix in one flat
// round on the shared scheduler pool. Results are ordered
// service-major, vantage-minor, and are bit-identical at any worker
// count.
func LocationStudy(profiles []client.Profile, batch workload.Batch, vantages []Vantage, reps int, seed int64) []LocationSummary {
	return locationStudy(profiles, batch, vantages, fixedRule(reps), VarianceReduction{}, seed)
}

// LocationStudyAdaptive is LocationStudy under a stopping rule. With
// vr.CRN every service draws the same per-(vantage, repetition) seed
// stream, so service-vs-service deltas at one vantage are paired
// comparisons.
func LocationStudyAdaptive(profiles []client.Profile, batch workload.Batch, vantages []Vantage, rule StopRule, vr VarianceReduction, seed int64) []LocationSummary {
	return locationStudy(profiles, batch, vantages, rule.withDefaults(vr), vr, seed)
}

// locationStudy is the location-study body: one cell per (service,
// vantage).
func locationStudy(profiles []client.Profile, batch workload.Batch, vantages []Vantage, rule StopRule, vr VarianceReduction, seed int64) []LocationSummary {
	var cells []syncCell
	for si, p := range profiles {
		for vi, v := range vantages {
			base := locationSeed(seed, si, vi, vr.CRN)
			cells = append(cells, syncCell{p: p, batch: batch, jitter: DefaultJitter,
				host: func() *netem.Host { return vantageHost(v) },
				seed: func(rep int) int64 { return campaignSeed(base, rep) }})
		}
	}
	out := make([]LocationSummary, len(cells))
	for i, s := range summarizeCells(cells, rule, vr) {
		out[i] = LocationSummary{Service: cells[i].p.Service, Vantage: vantages[i%len(vantages)].Name, Summary: s}
	}
	return out
}

// LocationReport renders a location study as a service x vantage
// table of mean completion times and the repetitions behind each.
// Every column is at least as wide as its vantage name and starts
// with a space, so names of any length stay apart.
func LocationReport(cells []LocationSummary, vantages []Vantage) string {
	var b strings.Builder
	widths := make([]int, len(vantages))
	fmt.Fprintf(&b, "%-14s", "service")
	for i, v := range vantages {
		widths[i] = max(19, len(v.Name))
		fmt.Fprintf(&b, " %*s", widths[i], v.Name)
	}
	b.WriteByte('\n')
	bySvc := map[string]map[string]Summary{}
	var order []string
	for _, c := range cells {
		if bySvc[c.Service] == nil {
			bySvc[c.Service] = map[string]Summary{}
			order = append(order, c.Service)
		}
		bySvc[c.Service][c.Vantage] = c.Summary
	}
	for _, svc := range order {
		fmt.Fprintf(&b, "%-14s", displayName(svc))
		for i, v := range vantages {
			s := bySvc[svc][v.Name]
			fmt.Fprintf(&b, " %*s", widths[i], fmt.Sprintf("%.2fs (%2d r)", s.MeanCompletion.Seconds(), s.RepsUsed))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
