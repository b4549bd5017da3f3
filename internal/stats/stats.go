// Package stats provides the small statistical toolkit behind the
// benchmark summaries: means, dispersion, order statistics and a
// normal-approximation confidence interval for the mean. The paper
// reports averages over 24 repetitions; a reproduction should also
// expose how tight those averages are.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation (0 for n < 2).
func Std(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	return math.Sqrt(sumSqDev(v) / float64(len(v)))
}

// SampleStd returns the sample standard deviation (n-1 divisor,
// Bessel's correction; 0 for n < 2). Inference about the mean of the
// underlying distribution — like the confidence interval MeanCI95
// reports — must use this estimator, not the population formula.
func SampleStd(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	return math.Sqrt(sumSqDev(v) / float64(len(v)-1))
}

// sumSqDev returns the sum of squared deviations from the mean.
func sumSqDev(v []float64) float64 {
	m := Mean(v)
	var s float64
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return s
}

// Median returns the 50th percentile.
func Median(v []float64) float64 { return Percentile(v, 50) }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between order statistics. Empty input yields 0; p is
// clamped to [0, 100].
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MeanCI95 returns the mean and the half-width of its 95% confidence
// interval: t(n-1) s/sqrt(n), with s the sample standard deviation
// (the population divisor would bias the interval narrow) and t the
// Student-t critical value for n-1 degrees of freedom. The normal
// approximation's 1.96 is only the n→∞ limit; at the paper's n=24 the
// correct multiplier is ~2.07, so a z-based interval under-covers at
// exactly the sample sizes benchmarks use. For n < 2 the half-width
// is 0.
func MeanCI95(v []float64) (mean, halfWidth float64) {
	mean = Mean(v)
	if len(v) < 2 {
		return mean, 0
	}
	return mean, TQuantile95(len(v)-1) * SampleStd(v) / math.Sqrt(float64(len(v)))
}

// tTable95 holds the two-sided 95% Student-t critical values (the
// 0.975 quantile) for 1..30 degrees of freedom.
var tTable95 = [...]float64{
	12.7062, 4.3027, 3.1824, 2.7764, 2.5706,
	2.4469, 2.3646, 2.3060, 2.2622, 2.2281,
	2.2010, 2.1788, 2.1604, 2.1448, 2.1314,
	2.1199, 2.1098, 2.1009, 2.0930, 2.0860,
	2.0796, 2.0739, 2.0687, 2.0639, 2.0595,
	2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
}

// z975 is the standard normal 0.975 quantile, the df→∞ limit of the t
// critical value.
const z975 = 1.959963984540054

// TQuantile95 returns the two-sided 95% Student-t critical value for
// df degrees of freedom: exact table values for df <= 30, a
// Cornish-Fisher expansion around the normal quantile beyond (error
// < 1e-4 for df > 30), and the normal limit for df <= 0 (callers
// guard n < 2 themselves; returning the limit keeps the function
// total).
func TQuantile95(df int) float64 {
	if df <= 0 {
		return z975
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	z := z975
	d := float64(df)
	z2 := z * z
	return z +
		z*(z2+1)/(4*d) +
		z*(5*z2*z2+16*z2+3)/(96*d*d) +
		z*(3*z2*z2*z2+19*z2*z2+17*z2-15)/(384*d*d*d)
}

// CV returns the coefficient of variation (std/mean); 0 when the mean
// is 0. The chunking detector uses it to separate fixed-size from
// content-defined chunking.
func CV(v []float64) float64 {
	m := Mean(v)
	if m == 0 {
		return 0
	}
	return Std(v) / m
}
