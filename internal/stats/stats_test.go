package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdKnown(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approx(Mean(v), 5, 1e-12) {
		t.Fatalf("mean = %v", Mean(v))
	}
	if !approx(Std(v), 2, 1e-12) {
		t.Fatalf("std = %v", Std(v))
	}
	// Sample std uses the n-1 divisor: sqrt(32/7).
	if !approx(SampleStd(v), math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("sample std = %v", SampleStd(v))
	}
	if SampleStd(v) <= Std(v) {
		t.Fatal("sample std must exceed population std")
	}
	if SampleStd(nil) != 0 || SampleStd([]float64{1}) != 0 {
		t.Fatal("SampleStd of n < 2 must be 0")
	}
}

func TestMeanCI95UsesSampleStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	_, hw := MeanCI95(v)
	// n=8, so the multiplier is the Student-t critical value at 7
	// degrees of freedom, not the normal-approximation 1.96.
	want := 2.3646 * math.Sqrt(32.0/7) / math.Sqrt(8)
	if !approx(hw, want, 1e-12) {
		t.Fatalf("CI half-width = %v, want %v (t-based, sample-std based)", hw, want)
	}
}

func TestTQuantile95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
		eps  float64
	}{
		{1, 12.7062, 1e-12}, // table entries are exact
		{7, 2.3646, 1e-12},
		{23, 2.0687, 1e-12}, // the paper's n=24 campaigns
		{30, 2.0423, 1e-12},
		{40, 2.0211, 5e-4}, // expansion region, vs published tables
		{60, 2.0003, 5e-4},
		{120, 1.9799, 5e-4},
		{100000, 1.9600, 5e-4},
	}
	for _, c := range cases {
		if got := TQuantile95(c.df); !approx(got, c.want, c.eps) {
			t.Errorf("TQuantile95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if got := TQuantile95(0); got != z975 {
		t.Errorf("TQuantile95(0) = %v, want normal limit", got)
	}
	// Monotone decreasing toward the normal limit.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		got := TQuantile95(df)
		if got > prev {
			t.Fatalf("TQuantile95 not decreasing at df=%d: %v > %v", df, got, prev)
		}
		if got < z975 {
			t.Fatalf("TQuantile95(%d) = %v below normal limit", df, got)
		}
		prev = got
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Median(nil) != 0 || CV(nil) != 0 {
		t.Fatal("empty inputs must be zero")
	}
	one := []float64{42}
	if Mean(one) != 42 || Std(one) != 0 || Median(one) != 42 || Percentile(one, 99) != 42 {
		t.Fatal("singleton")
	}
	if m, hw := MeanCI95(one); m != 42 || hw != 0 {
		t.Fatal("singleton CI")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	v := []float64{3, 1, 2}
	Percentile(v, 50)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestMeanCI95ShrinksWithN(t *testing.T) {
	rng := sim.NewRNG(1)
	sample := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	_, hwSmall := MeanCI95(sample(10))
	_, hwLarge := MeanCI95(sample(1000))
	if hwLarge >= hwSmall {
		t.Fatalf("CI did not shrink: %v -> %v", hwSmall, hwLarge)
	}
}

func TestOrderInvariance(t *testing.T) {
	rng := sim.NewRNG(2)
	f := func(n uint8) bool {
		v := make([]float64, int(n)+2)
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		shuffled := make([]float64, len(v))
		copy(shuffled, v)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return approx(Mean(v), Mean(shuffled), 1e-9) &&
			approx(Std(v), Std(shuffled), 1e-9) &&
			approx(Median(v), Median(shuffled), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	f := func(n uint8, p uint8) bool {
		v := make([]float64, int(n)+1)
		for i := range v {
			v[i] = rng.Float64()
		}
		lo, hi := slices.Min(v), slices.Max(v)
		got := Percentile(v, float64(p%100))
		return got >= lo-1e-12 && got <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("constant CV = %v", got)
	}
	if CV([]float64{1, 100}) <= CV([]float64{50, 51}) {
		t.Fatal("CV ordering")
	}
}
