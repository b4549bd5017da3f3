package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenAdaptiveBatch is the Cloud Drive workload the adaptive
// acceptance numbers are pinned on: many small files, where the
// far-server connection count dominates completion variance.
func goldenAdaptiveBatch() workload.Batch {
	return workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
}

// runCampaign drives one campaign cell under rule: rep k runs on
// campaignSeed(baseSeed, k) from the campus test computer, so rep k
// is the same repetition under every rule.
func runCampaign(p client.Profile, batch workload.Batch, rule StopRule, vr VarianceReduction, baseSeed int64) Summary {
	cell := syncCell{p: p, batch: batch, host: campusHost, jitter: DefaultJitter,
		seed: func(rep int) int64 { return campaignSeed(baseSeed, rep) }}
	return summarizeCells([]syncCell{cell}, rule, vr)[0]
}

// TestRunUntilBatchBoundaries pins the sequential schedule: the first
// batch is MinReps, later batches AdaptiveBatch, the last clipped to
// MaxReps — and the stopping check fires once per batch, never inside
// one, on the cell's whole sample so far.
func TestRunUntilBatchBoundaries(t *testing.T) {
	rule := StopRule{TargetRelHW: 1, MinReps: 6, MaxReps: 17}
	var sizes []int
	out := RunUntil(1, rule, 4, func(_, rep int) int { return rep }, func(_ int, sample []int) bool {
		sizes = append(sizes, len(sample))
		return false // never satisfied: run to the cap
	})[0]
	if len(out) != 17 {
		t.Fatalf("ran %d reps, want MaxReps=17", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("rep %d returned %d: results must be in index order", i, v)
		}
	}
	if want := []int{6, 10, 14, 17}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("stop saw samples of %v reps, want %v", sizes, want)
	}

	// A rule satisfied by the opening batch stops at MinReps exactly.
	out = RunUntil(1, rule, 4, func(_, rep int) int { return rep }, func(int, []int) bool { return true })[0]
	if len(out) != rule.MinReps {
		t.Fatalf("satisfied rule ran %d reps, want MinReps=%d", len(out), rule.MinReps)
	}
}

// TestRunUntilMultiCell drives synthetic cells that close in different
// rounds: cell c is satisfied once its sample holds stopAt[c] reps
// (one never is and runs to the cap). The reps each cell executed, its
// results and the samples its checks saw must be identical at any
// worker count.
func TestRunUntilMultiCell(t *testing.T) {
	rule := StopRule{TargetRelHW: 1, MinReps: 3, MaxReps: 15}
	stopAt := []int{3, 11, 7, 1000, 3}
	type rec struct{ cell, rep int }
	drive := func(workers int) ([][]rec, [][]int) {
		checks := make([][]int, len(stopAt))
		got := RunUntil(len(stopAt), rule, workers, func(c, rep int) rec { return rec{c, rep} },
			func(c int, sample []rec) bool {
				checks[c] = append(checks[c], len(sample))
				return len(sample) >= stopAt[c]
			})
		return got, checks
	}
	ref, refChecks := drive(1)
	wantReps := []int{3, 11, 7, 15, 3}
	for c, runs := range ref {
		if len(runs) != wantReps[c] {
			t.Fatalf("cell %d ran %d reps, want %d", c, len(runs), wantReps[c])
		}
		for k, r := range runs {
			if r != (rec{c, k}) {
				t.Fatalf("cell %d slot %d holds %+v", c, k, r)
			}
		}
	}
	for _, w := range []int{2, 7} {
		got, checks := drive(w)
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(checks, refChecks) {
			t.Fatalf("workers=%d: results or checks diverged\n got %v %v\nwant %v %v", w, got, checks, ref, refChecks)
		}
	}
}

// TestFixedPresetOneRound: the fixed preset folds every cell exactly
// once, after a single round whose index space is the flat cell x
// repetition matrix, cell-major and rep-minor.
func TestFixedPresetOneRound(t *testing.T) {
	rule := fixedRule(3)
	var order [][2]int
	folds := make([]int, 4)
	out := RunUntil(4, rule, 1, func(c, rep int) int {
		order = append(order, [2]int{c, rep})
		return c*10 + rep
	}, func(c int, _ []int) bool {
		folds[c]++
		return false
	})
	var want [][2]int
	for c := 0; c < 4; c++ {
		for rep := 0; rep < 3; rep++ {
			want = append(want, [2]int{c, rep})
		}
		if folds[c] != 1 || len(out[c]) != 3 {
			t.Fatalf("cell %d: %d folds, %d reps; want one fold of 3", c, folds[c], len(out[c]))
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("sequential evaluation order %v, want cell-major %v", order, want)
	}
}

// TestFixedRule pins the preset's resolution: a non-positive budget
// is the paper's DefaultReps, and a single repetition stays single.
func TestFixedRule(t *testing.T) {
	for _, tc := range []struct{ reps, want int }{{0, DefaultReps}, {-3, DefaultReps}, {1, 1}, {5, 5}} {
		r := fixedRule(tc.reps)
		if r.MinReps != tc.want || r.MaxReps != tc.want || r.TargetRelHW != 0 {
			t.Errorf("fixedRule(%d) = %+v, want %d..%d with no target", tc.reps, r, tc.want, tc.want)
		}
	}
}

// TestStopRuleValidate: zero fields are valid (they take defaults);
// targets outside [0, 1), negative bounds and inverted bounds are not.
func TestStopRuleValidate(t *testing.T) {
	plain, anti := VarianceReduction{}, VarianceReduction{Antithetic: true}
	for _, tc := range []struct {
		rule StopRule
		vr   VarianceReduction
		ok   bool
	}{
		{StopRule{}, plain, true},
		{StopRule{TargetRelHW: 0.05, MinReps: 8, MaxReps: 96}, plain, true},
		{StopRule{TargetRelHW: 0.999}, plain, true},
		{StopRule{MinReps: 10}, plain, true},
		{StopRule{MinReps: 8, MaxReps: 8}, plain, true},
		{StopRule{TargetRelHW: -0.05}, plain, false},
		{StopRule{TargetRelHW: 1}, plain, false},
		{StopRule{TargetRelHW: 1.5}, plain, false},
		{StopRule{TargetRelHW: math.NaN()}, plain, false},
		{StopRule{MinReps: -1}, plain, false},
		{StopRule{MaxReps: -4}, plain, false},
		{StopRule{MinReps: 10, MaxReps: 5}, plain, false},
		// A zero MinReps stands for DefaultMinReps, so a cap below it
		// cannot be honoured either.
		{StopRule{TargetRelHW: 0.05, MaxReps: DefaultMinReps}, plain, true},
		{StopRule{TargetRelHW: 0.05, MaxReps: DefaultMinReps - 1}, plain, false},
		{StopRule{TargetRelHW: 0.05, MaxReps: 2}, plain, false},
		{StopRule{MinReps: 2, MaxReps: 2}, plain, true},
		// A cap below the minimum the rule resolves to is rejected,
		// not raised: one rep resolves to a minimum of 2, and
		// antithetic pairing needs two whole pairs.
		{StopRule{TargetRelHW: 0.05, MinReps: 1, MaxReps: 1}, plain, false},
		{StopRule{TargetRelHW: 0.05, MinReps: 2, MaxReps: 2}, anti, false},
		{StopRule{TargetRelHW: 0.05, MinReps: 3, MaxReps: 3}, anti, false},
		{StopRule{TargetRelHW: 0.05, MinReps: 4, MaxReps: 4}, anti, true},
		{StopRule{TargetRelHW: 0.05, MinReps: 4, MaxReps: 5}, anti, true},
		{StopRule{MinReps: repsLimit}, plain, true},
		{StopRule{MinReps: repsLimit + 1}, plain, false},
		{StopRule{MaxReps: math.MaxInt}, anti, false},
	} {
		if err := tc.rule.Validate(tc.vr); (err == nil) != tc.ok {
			t.Errorf("%+v.Validate(%+v) = %v, want ok=%v", tc.rule, tc.vr, err, tc.ok)
		}
	}
}

// TestStopRuleDefaults pins the zero-value resolution and the
// antithetic evenization (pair means need whole pairs, rounded inside
// the bounds, so a cap is never exceeded).
func TestStopRuleDefaults(t *testing.T) {
	r := StopRule{}.withDefaults(VarianceReduction{})
	if r.TargetRelHW != DefaultTargetRelHW || r.MinReps != DefaultMinReps || r.MaxReps != DefaultMaxReps {
		t.Fatalf("zero rule resolved to %+v", r)
	}
	r = StopRule{MinReps: 3, MaxReps: 7}.withDefaults(VarianceReduction{Antithetic: true})
	if r.MinReps != 4 || r.MaxReps != 6 {
		t.Fatalf("antithetic rule must round inward to whole pairs, got %+v", r)
	}
	if r := (StopRule{MinReps: 100}).withDefaults(VarianceReduction{}); r.MaxReps != 100 {
		t.Fatalf("an unset MaxReps below MinReps must clamp up, got %+v", r)
	}
}

// TestAdaptiveWorkerEquivalence is the determinism contract of the
// tentpole: the repetitions executed AND the resulting Summary are a
// pure function of (seed, rule) — bit-identical at any worker count,
// with and without variance reduction.
func TestAdaptiveWorkerEquivalence(t *testing.T) {
	defer func(old int) { CampaignWorkers = old }(CampaignWorkers)
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	rule := StopRule{TargetRelHW: 0.02, MinReps: 8, MaxReps: 24}

	for _, vr := range []VarianceReduction{{}, {Antithetic: true}} {
		CampaignWorkers = 1
		ref := runCampaign(p, batch, rule, vr, 42)
		for _, w := range []int{2, 8} {
			CampaignWorkers = w
			if got := runCampaign(p, batch, rule, vr, 42); !reflect.DeepEqual(got, ref) {
				t.Fatalf("vr=%+v workers=%d: summary diverged\n got %+v\nwant %+v", vr, w, got, ref)
			}
		}
		if ref.RepsUsed < rule.MinReps || ref.RepsUsed > rule.MaxReps {
			t.Fatalf("vr=%+v: RepsUsed=%d outside [%d,%d]", vr, ref.RepsUsed, rule.MinReps, rule.MaxReps)
		}
	}
}

// TestAdaptiveMaxRepsCap: an unreachable target burns exactly the cap,
// never more, and reports the (missed) achieved precision honestly.
func TestAdaptiveMaxRepsCap(t *testing.T) {
	s := runCampaign(client.Dropbox(), goldenAdaptiveBatch(),
		StopRule{TargetRelHW: 1e-9, MinReps: 4, MaxReps: 12}, VarianceReduction{}, 7)
	if s.RepsUsed != 12 {
		t.Fatalf("RepsUsed=%d, want the MaxReps cap 12", s.RepsUsed)
	}
	if s.AchievedRelHW <= 1e-9 {
		t.Fatalf("AchievedRelHW=%v: an impossible target cannot have been met", s.AchievedRelHW)
	}
}

// TestAdaptiveZeroVarianceStopsAtMinReps: a degenerate cell (no
// dispersion at all: jitter-free, every repetition on one seed)
// satisfies any target with the opening batch, and reports exactly 0
// precision under a target and under the fixed preset alike.
func TestAdaptiveZeroVarianceStopsAtMinReps(t *testing.T) {
	cell := syncCell{p: client.Dropbox(), batch: workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary},
		host: campusHost, seed: func(int) int64 { return 7 }}
	for _, rule := range []StopRule{{TargetRelHW: 0.001, MinReps: 6, MaxReps: 96}, fixedRule(6)} {
		s := summarizeCells([]syncCell{cell}, rule, VarianceReduction{})[0]
		if s.RepsUsed != 6 {
			t.Fatalf("%+v: RepsUsed=%d, want MinReps=6 for a zero-variance cell", rule, s.RepsUsed)
		}
		if s.AchievedRelHW != 0 {
			t.Fatalf("%+v: AchievedRelHW=%v, want exactly 0", rule, s.AchievedRelHW)
		}
	}
}

// TestAdaptiveMatchesFixedPrefix: with no variance reduction, rep k of
// an adaptive campaign is bit-identical to rep k of a fixed one — the
// precision target changes when to stop, never what runs — and both
// designs report the one precision statistic, so the whole Summary
// matches.
func TestAdaptiveMatchesFixedPrefix(t *testing.T) {
	p := client.Wuala()
	batch := goldenAdaptiveBatch()
	fixed := runCampaign(p, batch, fixedRule(8), VarianceReduction{}, 42)
	adaptive := runCampaign(p, batch,
		StopRule{TargetRelHW: 1, MinReps: 8, MaxReps: 8}, VarianceReduction{}, 42)
	if !reflect.DeepEqual(fixed, adaptive) {
		t.Fatalf("adaptive 8-rep summary diverged from fixed 8-rep:\nfixed    %+v\nadaptive %+v", fixed, adaptive)
	}
}

// TestAntitheticBeatsPlainOnGoldenWorkload is the acceptance number of
// the PR: at the precision a fixed 24-rep Cloud Drive campaign
// achieves, the antithetic adaptive run gets there with measurably
// fewer repetitions. The exact counts are deterministic, so they are
// pinned — if a model change shifts them, re-measure and re-pin them
// here.
func TestAntitheticBeatsPlainOnGoldenWorkload(t *testing.T) {
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	fixed := runCampaign(p, batch, fixedRule(DefaultReps), VarianceReduction{}, 42)
	if fixed.AchievedRelHW <= 0 {
		t.Fatalf("fixed campaign reports no achieved precision: %+v", fixed)
	}
	rule := StopRule{TargetRelHW: fixed.AchievedRelHW, MinReps: 8, MaxReps: 96}

	anti := runCampaign(p, batch, rule, VarianceReduction{Antithetic: true}, 42)
	if anti.AchievedRelHW > rule.TargetRelHW {
		t.Fatalf("antithetic run stopped above target: %v > %v", anti.AchievedRelHW, rule.TargetRelHW)
	}
	if anti.RepsUsed >= fixed.RepsUsed {
		t.Fatalf("antithetic used %d reps, fixed budget is %d: no savings", anti.RepsUsed, fixed.RepsUsed)
	}
	// Pinned acceptance numbers (seed 42, Cloud Drive, 100 x 10 kB).
	if anti.RepsUsed != 16 {
		t.Fatalf("antithetic RepsUsed=%d, pinned at 16", anti.RepsUsed)
	}
}

// TestAntitheticPairCorrelation verifies the mechanism, not just the
// outcome: paired repetitions of the golden cell are negatively
// correlated, which is what makes pair means tighter than two
// independent repetitions.
func TestAntitheticPairCorrelation(t *testing.T) {
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	const pairs = 8
	cell := syncCell{p: p, batch: batch, host: campusHost, jitter: DefaultJitter}
	w := cellWorlds([]syncCell{cell})[0]
	var plain, anti []float64
	for k := 0; k < pairs; k++ {
		seed := campaignSeed(42, 2*k)
		mp := cell.runSync(w, vrRNG(seed, false))
		ma := cell.runSync(w, vrRNG(seed, true))
		plain = append(plain, mp.Completion.Seconds())
		anti = append(anti, ma.Completion.Seconds())
	}
	mu, mv := stats.Mean(plain), stats.Mean(anti)
	var cov, vu, vv float64
	for i := range plain {
		du, dv := plain[i]-mu, anti[i]-mv
		cov += du * dv
		vu += du * du
		vv += dv * dv
	}
	rho := cov / math.Sqrt(vu*vv)
	if rho >= 0 {
		t.Fatalf("pair correlation %.3f, want negative", rho)
	}
}

// TestCRNPairsServices validates the other variance-reduction lever:
// under common random numbers the two services in a loss-sweep cell
// face identical noise, so the spread of their per-rep difference is
// smaller than with independent seed streams.
func TestCRNPairsServices(t *testing.T) {
	a, b := client.Dropbox(), client.SkyDrive()
	const reps = 16
	var crn, indep []float64
	for rep := 0; rep < reps; rep++ {
		shared := lossSweepSeed(7, 0, 0, rep)
		ma := RunSyncLossy(a, DefaultLossBatch, Twente, shared, DefaultJitter, DefaultLossRates[0])
		mb := RunSyncLossy(b, DefaultLossBatch, Twente, shared, DefaultJitter, DefaultLossRates[0])
		crn = append(crn, ma.Completion.Seconds()-mb.Completion.Seconds())

		sa, sb := lossSweepSeed(7, 0, 0, rep), lossSweepSeed(7, 1, 0, rep)
		ma = RunSyncLossy(a, DefaultLossBatch, Twente, sa, DefaultJitter, DefaultLossRates[0])
		mb = RunSyncLossy(b, DefaultLossBatch, Twente, sb, DefaultJitter, DefaultLossRates[0])
		indep = append(indep, ma.Completion.Seconds()-mb.Completion.Seconds())
	}
	if sc, si := stats.SampleStd(crn), stats.SampleStd(indep); sc >= si {
		t.Fatalf("CRN diff std %.4f >= independent %.4f: pairing bought nothing", sc, si)
	}
}

// TestLossSweepAdaptiveWorkerEquivalence extends the determinism
// contract to the multi-cell sweeps, including the CRN seed routing.
func TestLossSweepAdaptiveWorkerEquivalence(t *testing.T) {
	defer func(old int) { CampaignWorkers = old }(CampaignWorkers)
	profiles := sweepProfiles()
	rates := []float64{0.02}
	rule := StopRule{TargetRelHW: 0.05, MinReps: 4, MaxReps: 12}
	vr := VarianceReduction{CRN: true}

	CampaignWorkers = 1
	ref := LossSweepAdaptive(profiles, rates, DefaultLossBatch, Twente, rule, vr, 11)
	CampaignWorkers = 8
	if got := LossSweepAdaptive(profiles, rates, DefaultLossBatch, Twente, rule, vr, 11); !reflect.DeepEqual(got, ref) {
		t.Fatalf("loss sweep diverged across worker counts\n got %+v\nwant %+v", got, ref)
	}
	for _, cell := range ref {
		if cell.Summary.RepsUsed < rule.MinReps || cell.Summary.RepsUsed > rule.MaxReps {
			t.Fatalf("%s@%g: RepsUsed=%d outside rule bounds", cell.Service, cell.LossRate, cell.Summary.RepsUsed)
		}
	}
}

// TestLocationStudyAdaptiveShape: every (service, vantage) cell is
// present, carries its names, and respects the rule bounds.
func TestLocationStudyAdaptiveShape(t *testing.T) {
	lisbon, ok := VantageByName("lisbon")
	if !ok {
		t.Fatal("lisbon missing from the landmark database")
	}
	vantages := []Vantage{Twente, lisbon}
	rule := StopRule{TargetRelHW: 0.2, MinReps: 2, MaxReps: 4}
	out := LocationStudyAdaptive(client.Profiles(), workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, vantages, rule, VarianceReduction{}, 3)
	if want := len(client.Profiles()) * len(vantages); len(out) != want {
		t.Fatalf("got %d cells, want %d", len(out), want)
	}
	for _, c := range out {
		if c.Service == "" || c.Vantage == "" {
			t.Fatalf("cell missing names: %+v", c)
		}
		if c.Summary.RepsUsed < rule.MinReps || c.Summary.RepsUsed > rule.MaxReps {
			t.Fatalf("%s@%s: RepsUsed=%d outside [%d,%d]", c.Service, c.Vantage, c.Summary.RepsUsed, rule.MinReps, rule.MaxReps)
		}
	}
}

// TestDetectCapabilitiesAdaptive: the probe suite repeats until the
// bundling statistic is tight and reports unanimity across seeds.
func TestDetectCapabilitiesAdaptive(t *testing.T) {
	all := DetectCapabilitiesAdaptive([]client.Profile{client.Dropbox()}, StopRule{TargetRelHW: 0.1, MinReps: 4, MaxReps: 12}, 42)
	if len(all) != 1 || all[0].Capabilities.Service != "dropbox" {
		t.Fatalf("want one dropbox row, got %+v", all)
	}
	out := all[0]
	if out.RepsUsed < 4 || out.RepsUsed > 12 {
		t.Fatalf("RepsUsed=%d outside rule bounds", out.RepsUsed)
	}
	if !out.Unanimous {
		t.Fatalf("Dropbox capability detection must be seed-stable, got %+v", out)
	}
	if out.AchievedRelHW > 0.1 && out.RepsUsed < 12 {
		t.Fatalf("stopped early above target: %+v", out)
	}
}

// TestRunFullCampaignAdaptiveRecordsRule: the campaign file carries
// the stopping rule so snapshots are comparable at equal confidence.
func TestRunFullCampaignAdaptiveRecordsRule(t *testing.T) {
	rule := StopRule{TargetRelHW: 0.2, MinReps: 2, MaxReps: 4}
	c := RunFullCampaignAdaptive(Twente, rule, VarianceReduction{}, 5)
	if c.Precision != 0.2 || c.MaxReps != 4 {
		t.Fatalf("campaign rule not recorded: precision=%v max_reps=%d", c.Precision, c.MaxReps)
	}
	if len(c.Fig6) == 0 || len(c.Lossy) == 0 || len(c.Idle) == 0 {
		t.Fatalf("adaptive campaign missing sections: %+v", c)
	}
	for _, r := range c.Fig6 {
		for _, s := range r.Summaries {
			if s.RepsUsed < rule.MinReps || s.RepsUsed > rule.MaxReps {
				t.Fatalf("%s: RepsUsed=%d outside [%d,%d]", r.Service, s.RepsUsed, rule.MinReps, rule.MaxReps)
			}
		}
	}
}
