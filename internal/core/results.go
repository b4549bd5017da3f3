package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Campaign is a complete, serializable benchmark run: what was
// measured, from where, with what seed, and every per-experiment
// result. The paper's closing promise — "all results and our
// benchmarking tool will be available to the public to compare
// results from different locations" — needs results that live past
// the process.
type Campaign struct {
	Tool    string `json:"tool"`
	Vantage string `json:"vantage"`
	Seed    int64  `json:"seed"`
	// Reps is the fixed per-cell repetition count that ran; a
	// campaign run under a precision target leaves it zero and
	// records its rule instead: Precision, the relative half-width
	// target, and MaxReps, the repetition cap. The per-cell
	// Summaries carry the reps spent and the achieved precision
	// either way (RepsUsed, AchievedRelHW).
	Reps      int          `json:"reps"`
	Precision float64      `json:"precision,omitempty"`
	MaxReps   int          `json:"max_reps,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	Fig6      []Fig6Result `json:"fig6"`
	Idle      []IdleResult `json:"idle,omitempty"`
	// Lossy is the loss-sweep section (service x loss rate, see
	// LossSweep): the lossy engine's behaviour pinned in baselines
	// the way Fig6 pins the clean engine's. Older campaign files
	// simply lack it; Compare reports the cells as added.
	Lossy []LossCell `json:"lossy,omitempty"`
}

// ToolVersion identifies the campaign format.
const ToolVersion = "cloudbench-repro/1.0"

// WriteJSON serializes the campaign.
func (c Campaign) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCampaign parses a serialized campaign. It rejects a file with
// no tool field, a Fig. 6 row whose summaries do not pair one to one
// with its workloads, a Fig. 6 or loss-sweep workload that fails
// workload.Batch.Validate, and a loss rate outside [0, 1).
func ReadCampaign(r io.Reader) (Campaign, error) {
	var c Campaign
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return Campaign{}, fmt.Errorf("core: parsing campaign: %w", err)
	}
	if c.Tool == "" {
		return Campaign{}, fmt.Errorf("core: not a campaign file (no tool field)")
	}
	for _, row := range c.Fig6 {
		if len(row.Summaries) != len(row.Workloads) {
			return Campaign{}, fmt.Errorf("core: fig6 row %q has %d summaries for %d workloads",
				row.Service, len(row.Summaries), len(row.Workloads))
		}
		for _, w := range row.Workloads {
			if err := w.Validate(); err != nil {
				return Campaign{}, fmt.Errorf("core: fig6 row %q: %w", row.Service, err)
			}
		}
	}
	for _, cell := range c.Lossy {
		if err := cell.Workload.Validate(); err != nil {
			return Campaign{}, fmt.Errorf("core: loss cell %q: %w", cell.Service, err)
		}
		if err := netem.CheckPath(cell.LossRate, 0); err != nil {
			return Campaign{}, fmt.Errorf("core: loss cell %q: %w", cell.Service, err)
		}
	}
	return c, nil
}

// Delta is one metric difference between two campaigns.
type Delta struct {
	Service  string
	Workload string
	Metric   string
	A, B     float64
	// Ratio is B/A; 1.0 means unchanged.
	Ratio float64
	// CIUnion is the sum of the two cells' achieved CI95 half-widths
	// for this metric — the widest gap two runs of the same system
	// would plausibly show. Zero when the metric has no recorded
	// interval (overhead, presence deltas, pre-precision snapshots).
	CIUnion float64
	// WithinCI reports |B-A| <= CIUnion for a delta that has one:
	// the disagreement is inside what the two runs' own precision
	// explains, so it is noise at the recorded confidence, not drift.
	WithinCI bool
}

// campaignIndex flattens a campaign's compared cells into a
// (service|workload) -> Summary lookup: the Fig. 6 matrix plus the
// loss-sweep section, whose workload key carries the loss rate so
// lossy cells never collide with clean ones.
func campaignIndex(c Campaign) map[string]Summary {
	m := map[string]Summary{}
	for _, r := range c.Fig6 {
		for i, s := range r.Summaries {
			m[r.Service+"|"+r.Workloads[i].String()] = s
		}
	}
	for _, cell := range c.Lossy {
		key := fmt.Sprintf("%s|%s@%g%%loss", cell.Service, cell.Workload, cell.LossRate*100)
		m[key] = cell.Summary
	}
	return m
}

// ComparableCells counts the (service, workload) cells two campaigns
// share — the cells Compare actually diffs. A regression gate must
// treat zero as an error: comparing disjoint campaigns (e.g. a
// baseline recorded with -skip-fig6) proves nothing.
func ComparableCells(a, b Campaign) int {
	ib := campaignIndex(b)
	n := 0
	for k := range campaignIndex(a) {
		if _, ok := ib[k]; ok {
			n++
		}
	}
	return n
}

// Compare diffs two campaigns' Fig. 6 results, returning every
// (service, workload, metric) whose ratio leaves [1/threshold,
// threshold]. It is the regression detector for profile or model
// changes, and the location-comparison engine for campaigns run from
// different vantages.
func Compare(a, b Campaign, threshold float64) []Delta {
	if threshold < 1 {
		threshold = 1 / threshold
	}
	ia, ib := campaignIndex(a), campaignIndex(b)
	var keys []string
	for k := range ia {
		if _, ok := ib[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var out []Delta
	for _, k := range keys {
		sa, sb := ia[k], ib[k]
		parts := strings.SplitN(k, "|", 2)
		check := func(metric string, va, vb, ciUnion float64) {
			if va <= 0 || vb <= 0 {
				return
			}
			ratio := vb / va
			if ratio > threshold || ratio < 1/threshold {
				out = append(out, Delta{
					Service: parts[0], Workload: parts[1],
					Metric: metric, A: va, B: vb, Ratio: ratio,
					CIUnion: ciUnion,
					WithinCI: ciUnion > 0 &&
						math.Abs(vb-va) <= ciUnion,
				})
			}
		}
		check("completion_s", sa.MeanCompletion.Seconds(), sb.MeanCompletion.Seconds(),
			sa.CI95Completion.Seconds()+sb.CI95Completion.Seconds())
		check("startup_s", sa.MeanStartup.Seconds(), sb.MeanStartup.Seconds(), 0)
		check("overhead_x", sa.MeanOverhead, sb.MeanOverhead, 0)
	}

	// A change in the compared surface itself is drift too: cells
	// present in only one campaign (a baseline gaining its lossy
	// section, a skipped experiment) must be declared, not silently
	// excluded from the intersection.
	presence := func(from map[string]Summary, other map[string]Summary, metric string, aSide bool) {
		var ks []string
		for k := range from {
			if _, ok := other[k]; !ok {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		for _, k := range ks {
			parts := strings.SplitN(k, "|", 2)
			d := Delta{Service: parts[0], Workload: parts[1], Metric: metric}
			if aSide {
				d.A = from[k].MeanCompletion.Seconds()
			} else {
				d.B = from[k].MeanCompletion.Seconds()
			}
			out = append(out, d)
		}
	}
	presence(ia, ib, "cell_removed", true)
	presence(ib, ia, "cell_added", false)
	return out
}

// DeltaReport renders comparison results. Deltas that carry an
// achieved confidence interval are annotated with whether the
// disagreement fits inside the union of the two runs' CIs —
// precision-aware drift flagging instead of raw-number comparison.
func DeltaReport(deltas []Delta) string {
	if len(deltas) == 0 {
		return "no significant differences\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s%-12s%-14s%12s%12s%9s  %s\n",
		"service", "workload", "metric", "A", "B", "B/A", "vs-CI")
	for _, d := range deltas {
		note := ""
		if d.CIUnion > 0 {
			if d.WithinCI {
				note = "within-ci"
			} else {
				note = "exceeds-ci"
			}
		}
		fmt.Fprintf(&b, "%-14s%-12s%-14s%12.3f%12.3f%9.2f  %s\n",
			d.Service, d.Workload, d.Metric, d.A, d.B, d.Ratio, note)
	}
	return b.String()
}

// RunFullCampaign executes the Fig. 6 benchmarks, the idle
// measurement and the default loss sweep for every service from the
// given vantage, reps repetitions per cell (reps <= 0 means
// DefaultReps; Reps records the count that ran), producing a
// persistable campaign. The timestamp is virtual (the simulation's
// epoch) so campaigns are byte-identical given a seed.
func RunFullCampaign(vantage Vantage, reps int, seed int64) Campaign {
	return runFullCampaign(vantage, fixedRule(reps), VarianceReduction{}, seed)
}

// RunFullCampaignAdaptive is RunFullCampaign under a stopping rule:
// the Fig. 6 and loss-sweep sections run their cells adaptively and
// the campaign records the rule (Precision, MaxReps) alongside the
// per-cell achieved precision, so snapshots are comparable at equal
// confidence. The idle section is a single deterministic timeline and
// runs as before.
func RunFullCampaignAdaptive(vantage Vantage, rule StopRule, vr VarianceReduction, seed int64) Campaign {
	return runFullCampaign(vantage, rule.withDefaults(vr), vr, seed)
}

// runFullCampaign is the full-campaign body.
func runFullCampaign(vantage Vantage, rule StopRule, vr VarianceReduction, seed int64) Campaign {
	c := Campaign{Tool: ToolVersion, Vantage: vantage.Name, Seed: seed, CreatedAt: sim.Epoch}
	if rule.TargetRelHW > 0 {
		c.Precision, c.MaxReps = rule.TargetRelHW, rule.MaxReps
	} else {
		c.Reps = rule.MaxReps
	}
	profiles := client.Profiles()
	c.Fig6 = fig6(profiles, func() *netem.Host { return vantageHost(vantage) }, rule, vr, seed)
	for _, p := range profiles {
		c.Idle = append(c.Idle, RunIdle(p, seed))
	}
	c.Lossy = lossSweep(profiles, DefaultLossRates, DefaultLossBatch, vantage, rule, vr, seed)
	return c
}
