package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// interarrivals draws n successive gaps from one arrival process.
func interarrivals(a Arrival, rng *sim.RNG, n int) []float64 {
	gaps := make([]float64, n)
	var t time.Duration
	for i := range gaps {
		next := a.Next(rng, t)
		gaps[i] = float64(next - t)
		t = next
	}
	return gaps
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestPoissonInterarrivalMoments(t *testing.T) {
	const perDay = 8.0
	gaps := interarrivals(Poisson{PerDay: perDay}, sim.NewRNG(11), 60_000)
	mean, variance := meanVar(gaps)

	wantMean := float64(ServiceDay) / perDay
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Fatalf("Poisson mean = %v, want %v ±2%%", time.Duration(mean), time.Duration(wantMean))
	}
	// Exponential: variance == mean².
	if r := variance / (wantMean * wantMean); r < 0.9 || r > 1.1 {
		t.Fatalf("Poisson variance/mean² = %.3f, want 1 ±10%%", r)
	}
}

func TestGammaInterarrivalMoments(t *testing.T) {
	for _, cv := range []float64{0.5, 1.0, 2.0} {
		const perDay = 6.0
		gaps := interarrivals(Gamma{PerDay: perDay, CV: cv}, sim.NewRNG(13), 60_000)
		mean, variance := meanVar(gaps)

		wantMean := float64(ServiceDay) / perDay
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Fatalf("CV=%v: gamma mean = %v, want %v ±3%%", cv, time.Duration(mean), time.Duration(wantMean))
		}
		gotCV := math.Sqrt(variance) / mean
		if math.Abs(gotCV-cv)/cv > 0.06 {
			t.Fatalf("CV=%v: sample CV = %.3f, want ±6%%", cv, gotCV)
		}
	}
}

func TestGammaDeterministicDrumbeat(t *testing.T) {
	g := Gamma{PerDay: 24, CV: 0}
	rng := sim.NewRNG(1)
	if got := g.Next(rng, 0); got != time.Hour {
		t.Fatalf("CV<=0 interarrival = %v, want exactly 1h", got)
	}
}

func TestDiurnalIntegratesToDailyVolume(t *testing.T) {
	// The schedule must deliver the configured daily volume however
	// the weights are scaled: scaling them by a power of two (exact in
	// floating point) replays the very same arrivals, and the mean
	// count per day over many replayed days is PerDay.
	for _, d := range []Diurnal{
		{PerDay: 120, Weights: OfficeHours()},
		{PerDay: 3.5, Weights: [24]float64{5: 10, 6: 30, 7: 10}},
		{PerDay: 42}, // zero weights: flat day
	} {
		scaled := d
		for h := range scaled.Weights {
			scaled.Weights[h] *= 4
		}
		const days = 400
		total := 0
		for day := 0; day < days; day++ {
			a, b := sim.NewRNG(77).Fork(int64(day)), sim.NewRNG(77).Fork(int64(day))
			ta, tb := d.Next(a, 0), scaled.Next(b, 0)
			for ; ta < ServiceDay; ta, tb = d.Next(a, ta), scaled.Next(b, tb) {
				if ta != tb {
					t.Fatalf("weights %v: scaling the weights moved an arrival %v -> %v", d.Weights, ta, tb)
				}
				total++
			}
		}
		got := float64(total) / days
		if sd := math.Sqrt(d.PerDay / days); math.Abs(got-d.PerDay) > 5*sd {
			t.Fatalf("weights %v: %.2f arrivals per day, want %v ±%.2f", d.Weights, got, d.PerDay, 5*sd)
		}
	}
}

func TestDiurnalEmpiricalVolumeAndShape(t *testing.T) {
	// Thinning must deliver the configured daily volume and follow
	// the hourly shape: count arrivals per hour over many replayed
	// days and compare against the schedule.
	d := Diurnal{PerDay: 50, Weights: OfficeHours()}
	const days = 400
	var total int
	var perHour [24]float64
	for day := 0; day < days; day++ {
		rng := sim.NewRNG(1000).Fork(int64(day))
		for t := d.Next(rng, 0); t < ServiceDay; t = d.Next(rng, t) {
			total++
			perHour[int(t/time.Hour)]++
		}
	}
	gotPerDay := float64(total) / days
	if math.Abs(gotPerDay-d.PerDay)/d.PerDay > 0.03 {
		t.Fatalf("empirical daily volume = %.2f, want %v ±3%%", gotPerDay, d.PerDay)
	}
	// Shape: each hour's share within 20% relative (peak hours carry
	// enough mass for a tight check; skip near-empty night hours).
	var weightSum float64
	for _, w := range d.Weights {
		weightSum += w
	}
	for h := 0; h < 24; h++ {
		want := d.PerDay * d.Weights[h] / weightSum * days
		if want < 500 {
			continue
		}
		if math.Abs(perHour[h]-want)/want > 0.2 {
			t.Fatalf("hour %d: %.0f arrivals, want %.0f ±20%%", h, perHour[h], want)
		}
	}
	// And the peak hour must dominate the quietest by the configured
	// contrast (3.5 vs 0.1 — at least an order of magnitude here).
	if perHour[14] < 5*perHour[3] {
		t.Fatalf("diurnal contrast lost: hour 14 = %.0f, hour 3 = %.0f", perHour[14], perHour[3])
	}
}

func TestArrivalDeterministicAcrossForkReplays(t *testing.T) {
	// The same Fork label must replay the same arrival sequence for
	// every process type; a different label must diverge.
	procs := []Arrival{
		Poisson{PerDay: 10},
		Gamma{PerDay: 10, CV: 2},
		Diurnal{PerDay: 40, Weights: OfficeHours()},
	}
	base := sim.NewRNG(77)
	for _, p := range procs {
		a := interarrivals(p, base.Fork(5), 200)
		b := interarrivals(p, base.Fork(5), 200)
		c := interarrivals(p, base.Fork(6), 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T: replayed Fork diverged at draw %d", p, i)
			}
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%T: distinct Fork labels produced identical sequences", p)
		}
	}
}
