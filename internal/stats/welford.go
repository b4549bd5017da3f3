package stats

import "math"

// Accumulator folds observations one at a time so a sequential
// stopping check costs O(batch), not O(reps so far): the adaptive
// campaign driver pushes each new repetition into it and reads the
// current CI95 half-width without re-scanning the full sample.
//
// The mean is kept as a running ordered sum divided by n — bit-
// identical to Mean over the same values in the same order, so the
// stopping statistic matches what Summarize later reports from the
// full slice. The spread is Welford's M2 recurrence (numerically
// stable sum of squared deviations); it agrees with the two-pass
// sumSqDev only up to floating-point rearrangement, which the
// accumulator tests pin to a tight relative tolerance.
type Accumulator struct {
	n    int
	sum  float64
	mean float64 // Welford running mean, drives the M2 recurrence
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean (0 for empty), bit-identical to
// Mean of the same values in insertion order.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// SampleStd returns the sample standard deviation (n-1 divisor; 0 for
// n < 2), from the Welford recurrence.
func (a *Accumulator) SampleStd() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// MeanCI95 returns the running mean and the Student-t 95% confidence
// half-width, matching MeanCI95 over the same sample.
func (a *Accumulator) MeanCI95() (mean, halfWidth float64) {
	if a.n < 2 {
		return a.Mean(), 0
	}
	return a.Mean(), TQuantile95(a.n-1) * a.SampleStd() / math.Sqrt(float64(a.n))
}

// RelHalfWidth returns the CI95 half-width relative to the magnitude
// of the mean — the adaptive stopping statistic. A degenerate sample
// (zero spread, including n < 2) reports 0; a zero mean with spread
// reports +Inf, which never satisfies a finite precision target.
func (a *Accumulator) RelHalfWidth() float64 {
	mean, hw := a.MeanCI95()
	if hw == 0 {
		return 0
	}
	if mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(hw / mean)
}
