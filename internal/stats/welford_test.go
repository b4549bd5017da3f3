package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestAccumulatorMeanBitIdentical pins the accumulator's mean to the
// batch Mean over the same values in the same order — the property
// that makes the adaptive stopping statistic agree exactly with what
// Summarize later reports.
func TestAccumulatorMeanBitIdentical(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		n := 2 + int(rng.Int63n(100))
		v := make([]float64, n)
		var acc Accumulator
		for i := range v {
			v[i] = rng.Float64()*1e3 - 500
			acc.Add(v[i])
		}
		if acc.Mean() != Mean(v) {
			t.Fatalf("trial %d: accumulator mean %v != batch mean %v", trial, acc.Mean(), Mean(v))
		}
	}
}

// TestAccumulatorMatchesBatchFormulas pins std and CI against the
// two-pass formulas within floating-point rearrangement tolerance.
func TestAccumulatorMatchesBatchFormulas(t *testing.T) {
	rng := sim.NewRNG(12)
	for trial := 0; trial < 20; trial++ {
		n := 2 + int(rng.Int63n(100))
		v := make([]float64, n)
		var acc Accumulator
		for i := range v {
			v[i] = rng.Float64() * 1e4
			acc.Add(v[i])
		}
		wantStd := SampleStd(v)
		if rel := math.Abs(acc.SampleStd()-wantStd) / wantStd; rel > 1e-9 {
			t.Fatalf("trial %d: std %v vs %v (rel %v)", trial, acc.SampleStd(), wantStd, rel)
		}
		wantMean, wantHW := MeanCI95(v)
		gotMean, gotHW := acc.MeanCI95()
		if gotMean != wantMean {
			t.Fatalf("trial %d: CI mean %v != %v", trial, gotMean, wantMean)
		}
		if rel := math.Abs(gotHW-wantHW) / wantHW; rel > 1e-9 {
			t.Fatalf("trial %d: CI hw %v vs %v (rel %v)", trial, gotHW, wantHW, rel)
		}
	}
}

func TestAccumulatorDegenerate(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.SampleStd() != 0 || acc.RelHalfWidth() != 0 {
		t.Fatal("empty accumulator must be all-zero")
	}
	acc.Add(42)
	if m, hw := acc.MeanCI95(); m != 42 || hw != 0 {
		t.Fatalf("singleton CI = %v +/- %v", m, hw)
	}
	// Zero variance: half-width stays 0 no matter how many reps.
	for i := 0; i < 10; i++ {
		acc.Add(42)
	}
	if acc.RelHalfWidth() != 0 {
		t.Fatalf("constant sample RelHalfWidth = %v, want 0", acc.RelHalfWidth())
	}
	// Zero mean with spread: relative half-width is undefined; +Inf
	// makes any finite precision target unreachable rather than
	// trivially satisfied.
	var zero Accumulator
	zero.Add(-1)
	zero.Add(1)
	if !math.IsInf(zero.RelHalfWidth(), 1) {
		t.Fatalf("zero-mean RelHalfWidth = %v, want +Inf", zero.RelHalfWidth())
	}
}

// TestAccumulatorCatastrophicShift exercises the numerical-stability
// reason for Welford: a large offset with small spread, where the
// naive sum-of-squares formula loses all precision.
func TestAccumulatorCatastrophicShift(t *testing.T) {
	var acc Accumulator
	base := 1e9
	v := []float64{base + 1, base + 2, base + 3, base + 4}
	for _, x := range v {
		acc.Add(x)
	}
	want := SampleStd(v) // two-pass is also stable
	if rel := math.Abs(acc.SampleStd()-want) / want; rel > 1e-9 {
		t.Fatalf("shifted std %v vs %v", acc.SampleStd(), want)
	}
}
