package main

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestParseLossRates: -loss takes the rates netem.CheckPath accepts,
// [0, 1), and rejects everything else with an error.
func TestParseLossRates(t *testing.T) {
	got, err := parseLossRates(" 0, 0.005,0.999 ,")
	if err != nil || !slices.Equal(got, []float64{0, 0.005, 0.999}) {
		t.Fatalf("parseLossRates = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "-0.1", "0.02,1.5", "NaN", "x", "", " , "} {
		if got, err := parseLossRates(bad); err == nil {
			t.Errorf("parseLossRates(%q) = %v, want an error", bad, got)
		}
	}
}

// TestCheckFlags: a negative -parallel or -reps, a stopping rule
// StopRule.Validate rejects, and -antithetic or -crn without
// -precision are refused; zeros and the defaults pass.
func TestCheckFlags(t *testing.T) {
	rule := func(target float64, min, max int) core.StopRule {
		return core.StopRule{TargetRelHW: target, MinReps: min, MaxReps: max}
	}
	defaults := rule(0, core.DefaultMinReps, core.DefaultMaxReps)
	for _, tc := range []struct {
		name           string
		parallel, reps int
		d              design
		ok             bool
	}{
		{"defaults", 0, core.DefaultReps, design{rule: defaults}, true},
		{"zeros", 0, 0, design{}, true},
		{"adaptive with variance reduction", 4, 0, design{rule: rule(0.05, 8, 16),
			vr: core.VarianceReduction{Antithetic: true, CRN: true}}, true},
		{"negative parallel", -1, core.DefaultReps, design{rule: defaults}, false},
		{"negative reps", 0, -2, design{rule: defaults}, false},
		{"precision at 1", 0, 0, design{rule: rule(1, 8, 16)}, false},
		{"negative max reps", 0, 0, design{rule: rule(0.05, 8, -1)}, false},
		{"min above max", 0, 0, design{rule: rule(0.05, 32, 16)}, false},
		{"one rep is below the resolved min of 2", 0, 0, design{rule: rule(0.05, 1, 1)}, false},
		{"two reps are below the antithetic min of 4", 0, 0, design{rule: rule(0.05, 2, 2),
			vr: core.VarianceReduction{Antithetic: true}}, false},
		{"two reps fit a plain rule", 0, 0, design{rule: rule(0.05, 2, 2)}, true},
		{"odd antithetic cap rounds down to whole pairs", 0, 0, design{rule: rule(0.05, 4, 5),
			vr: core.VarianceReduction{Antithetic: true}}, true},
		{"antithetic without precision", 0, 0, design{rule: defaults, vr: core.VarianceReduction{Antithetic: true}}, false},
		{"crn without precision", 0, 0, design{rule: defaults, vr: core.VarianceReduction{CRN: true}}, false},
	} {
		err := checkFlags(tc.parallel, tc.reps, tc.d)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
