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
	for _, tc := range []struct {
		name string
		reps int
		rule core.StopRule
		vr   bool
		want string // "" when the flags pass
	}{
		{"defaults", 8, defaults, false, ""},
		{"zeros", 0, core.StopRule{}, false, ""},
		{"adaptive with variance reduction", 0, rule(0.05, 64), true, ""},
		{"negative reps", -2, defaults, false, "-reps must be >= 0 (got -2)"},
		{"precision at 1", 0, rule(1, 64), false, "-precision/-max-reps: precision target 1 is outside [0, 1)"},
		{"negative max reps", 0, rule(0.05, -1), false, "-precision/-max-reps: repetition bounds must be >= 0 (min 0, max -1)"},
		{"max below the default min", 0, rule(0.05, 1), false, "-precision/-max-reps: min reps 8 exceeds max reps 1"},
		{"variance reduction without precision", 8, defaults, true, "-antithetic and -crn require -precision"},
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
