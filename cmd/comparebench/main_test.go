package main

import (
	"testing"

	"repro/internal/core"
)

// TestCheckFlags: a negative -reps, a stopping rule StopRule.Validate
// rejects, and -antithetic or -crn without -precision are refused with
// their messages; zeros and the defaults pass.
func TestCheckFlags(t *testing.T) {
	rule := func(target float64, max int) core.StopRule {
		return core.StopRule{TargetRelHW: target, MaxReps: max}
	}
	defaults := rule(0, core.DefaultMaxReps)
	none, both := core.VarianceReduction{}, core.VarianceReduction{Antithetic: true, CRN: true}
	for _, tc := range []struct {
		name string
		reps int
		rule core.StopRule
		vr   core.VarianceReduction
		want string // "" when the flags pass
	}{
		{"defaults", 8, defaults, none, ""},
		{"zeros", 0, core.StopRule{}, none, ""},
		{"adaptive with variance reduction", 0, rule(0.05, 64), both, ""},
		{"odd cap rounds down to whole pairs", 0, rule(0.05, 9), both, ""},
		{"negative reps", -2, defaults, none, "-reps must be >= 0 (got -2)"},
		{"precision at 1", 0, rule(1, 64), none, "-precision/-max-reps: precision target 1 is outside [0, 1)"},
		{"negative max reps", 0, rule(0.05, -1), none, "-precision/-max-reps: repetition bounds must be >= 0 (min 0, max -1)"},
		{"max reps beyond the limit", 0, rule(0.05, 1<<20), none, "-precision/-max-reps: repetition bounds must be <= 65536 (min 0, max 1048576)"},
		{"max below the default min", 0, rule(0.05, 1), none, "-precision/-max-reps: min reps 8 exceeds max reps 1"},
		{"max below the min of antithetic pairs", 0, rule(0.05, 7), both, "-precision/-max-reps: min reps 8 exceeds max reps 7"},
		{"variance reduction without precision", 8, defaults, both, "-antithetic and -crn require -precision"},
	} {
		got := ""
		if err := checkFlags(tc.reps, tc.rule, tc.vr); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: checkFlags = %q, want %q", tc.name, got, tc.want)
		}
	}
}
