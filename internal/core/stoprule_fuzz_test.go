package core

import "testing"

// FuzzStopRule checks the stopping-rule surface that every driver's
// -precision, -min-reps and -max-reps flags reach. Validate and
// withDefaults must not panic on any input. A rule that Validate
// accepts under a variance reduction, plain or antithetic, must
// resolve to a precision target in (0, 1) and to 2 <= MinReps <=
// MaxReps, with MinReps no lower than requested and MaxReps no higher
// than a set cap. Under antithetic pairing both bounds must be whole
// pairs and MinReps at least two of them. The committed corpus holds
// the defaults, the paper's design, caps at and below the resolved
// minimum, odd antithetic bounds, and out-of-range values.
func FuzzStopRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, target float64, minReps, maxReps int) {
		r := StopRule{TargetRelHW: target, MinReps: minReps, MaxReps: maxReps}
		for _, vr := range []VarianceReduction{{}, {Antithetic: true}} {
			if r.Validate(vr) != nil {
				continue
			}
			res := r.withDefaults(vr)
			switch {
			case !(res.TargetRelHW > 0 && res.TargetRelHW < 1):
				t.Fatalf("%+v under %+v: target resolved to %g", r, vr, res.TargetRelHW)
			case res.MinReps < 2 || res.MinReps > res.MaxReps:
				t.Fatalf("%+v under %+v: bounds resolved to [%d, %d]", r, vr, res.MinReps, res.MaxReps)
			case res.MinReps < r.MinReps:
				t.Fatalf("%+v under %+v: min reps lowered to %d", r, vr, res.MinReps)
			case r.MaxReps > 0 && res.MaxReps > r.MaxReps:
				t.Fatalf("%+v under %+v: cap raised to %d", r, vr, res.MaxReps)
			case vr.Antithetic && (res.MinReps < 4 || res.MinReps%2 != 0 || res.MaxReps%2 != 0):
				t.Fatalf("%+v under %+v: bounds [%d, %d] are not whole pairs", r, vr, res.MinReps, res.MaxReps)
			}
		}
	})
}
