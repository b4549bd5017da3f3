package workload

import (
	"math"
	"time"

	"repro/internal/sim"
)

// ServiceDay is the horizon of one simulated service day: the period
// of the diurnal load pattern and the default duration of a fleet
// campaign.
const ServiceDay = 24 * time.Hour

// Arrival generates the session instants of one simulated user. Next
// returns the first arrival strictly after now, as an offset from the
// day start; callers stop once the returned instant leaves their
// horizon. Implementations draw only from the rng they are handed, so
// a user's whole arrival sequence is a pure function of its forked
// stream — replaying the same Fork yields the same day, bit for bit,
// at any worker count.
type Arrival interface {
	Next(rng *sim.RNG, now time.Duration) time.Duration
}

// Poisson is a memoryless arrival process: exponential interarrivals
// with mean ServiceDay/PerDay, the default model for steady background
// sync traffic.
type Poisson struct {
	PerDay float64 // mean sessions per ServiceDay; must be > 0
}

// Next returns now plus one exponential interarrival draw.
func (p Poisson) Next(rng *sim.RNG, now time.Duration) time.Duration {
	mean := float64(ServiceDay) / p.PerDay
	return now + time.Duration(rng.ExpFloat64()*mean)
}

// Gamma is a renewal process with gamma-distributed interarrivals of
// mean ServiceDay/PerDay and coefficient of variation CV: CV > 1
// models bursty users (sessions cluster, then long silences), CV < 1
// regular ones, CV == 1 degenerates to Poisson. CV <= 0 means a
// deterministic drumbeat at the mean interval.
type Gamma struct {
	PerDay float64 // mean sessions per ServiceDay; must be > 0
	CV     float64 // interarrival coefficient of variation
}

// Next returns now plus one gamma interarrival draw with shape 1/CV²
// and scale mean·CV².
func (g Gamma) Next(rng *sim.RNG, now time.Duration) time.Duration {
	mean := float64(ServiceDay) / g.PerDay
	if g.CV <= 0 {
		return now + time.Duration(mean)
	}
	shape := 1 / (g.CV * g.CV)
	return now + time.Duration(gammaVariate(rng, shape, mean/shape))
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a
// 24-hour schedule: Weights[h] is the relative intensity of hour h,
// normalised so the schedule integrates to exactly PerDay arrivals
// per ServiceDay regardless of the weights' scale. The zero Weights
// value means a flat day (plain Poisson). Instants beyond one day
// wrap onto the same schedule, so the process is well-defined on any
// horizon.
type Diurnal struct {
	PerDay  float64     // mean sessions per ServiceDay; must be > 0
	Weights [24]float64 // relative hourly intensity; all-zero = flat
}

// weightSum returns the schedule's normalisation mass, treating the
// all-zero schedule as flat.
func (d Diurnal) weightSum() (sum, max float64, flat bool) {
	for _, w := range d.Weights {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 24, 1, true
	}
	return sum, max, false
}

// Next samples the next arrival by thinning (Lewis–Shedler): draw
// candidates from a homogeneous process at the schedule's peak rate
// and accept each with probability rate(t)/peak. Both the candidate
// and the acceptance draw come from rng, so the sequence replays
// exactly.
func (d Diurnal) Next(rng *sim.RNG, now time.Duration) time.Duration {
	sum, max, flat := d.weightSum()
	if flat {
		return Poisson{PerDay: d.PerDay}.Next(rng, now)
	}
	peakPerNs := d.PerDay * max / sum / float64(time.Hour)
	t := now
	for {
		t += time.Duration(rng.ExpFloat64() / peakPerNs)
		hour := int(t/time.Hour) % 24
		if rng.Float64()*max < d.Weights[hour] {
			return t
		}
	}
}

// OfficeHours is a reference diurnal shape: quiet nights, a morning
// ramp, a sustained working-hours plateau with a lunch dip, and an
// evening shoulder — the classic interactive-user load curve.
func OfficeHours() [24]float64 {
	return [24]float64{
		0.2, 0.15, 0.1, 0.1, 0.1, 0.2, // 00–05
		0.5, 1.0, 2.0, 3.0, 3.5, 3.0, // 06–11
		2.5, 3.0, 3.5, 3.5, 3.0, 2.5, // 12–17
		2.0, 1.5, 1.2, 1.0, 0.6, 0.3, // 18–23
	}
}

// gammaVariate draws one gamma(shape, scale) variate via
// Marsaglia–Tsang squeeze-rejection (for shape >= 1) with the
// standard U^{1/shape} boost for shape < 1. Every draw comes from
// rng, so sequences are deterministic per stream.
func gammaVariate(rng *sim.RNG, shape, scale float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaVariate(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}
