package geo

import "time"

// Method identifies which geolocation technique produced an estimate.
// The paper's hybrid methodology (Sect. 2.1) prefers reverse-DNS
// airport codes, falls back to traceroute router landmarks, and uses
// shortest-RTT multilateration as the last resort.
type Method int

const (
	// MethodNone means the target could not be located.
	MethodNone Method = iota
	// MethodReverseDNS located the target via an airport code in its
	// reverse-DNS name.
	MethodReverseDNS
	// MethodTraceroute located the target via the last resolvable
	// router on the forward path.
	MethodTraceroute
	// MethodShortestRTT located the target near the vantage point
	// with the smallest measured RTT.
	MethodShortestRTT
)

// String returns the method name used in reports.
func (m Method) String() string {
	switch m {
	case MethodReverseDNS:
		return "reverse-dns"
	case MethodTraceroute:
		return "traceroute"
	case MethodShortestRTT:
		return "shortest-rtt"
	default:
		return "none"
	}
}

// Estimate is the output of the hybrid geolocator.
type Estimate struct {
	Coord         Coord
	Method        Method
	City          string // nearest landmark city, for reports
	Country       string
	UncertaintyKm float64 // radius of the confidence disc
}

// Located reports whether the estimate carries a usable position.
func (e Estimate) Located() bool { return e.Method != MethodNone }

// VantageRTT is one RTT measurement from a known vantage point
// (PlanetLab node in the paper) towards the target.
type VantageRTT struct {
	Name  string
	Coord Coord
	RTT   time.Duration
}

// Hop is one traceroute hop: the reverse-DNS name of the router, if
// resolvable.
type Hop struct {
	Name string
	RTT  time.Duration
}

// Evidence gathers everything the measurement harness learned about one
// server IP before geolocation.
type Evidence struct {
	IP         string
	ReverseDNS string       // may be empty
	Vantages   []VantageRTT // RTT measurements, any order
	Traceroute []Hop        // forward path, nearest first
}

// Locate runs the hybrid methodology on the collected evidence.
//
// Preference order mirrors the paper: an airport code embedded in the
// target's own reverse-DNS name is the strongest signal (the operator
// tells us where the box is); next, the closest locatable router on the
// forward path; finally, the vantage point with the shortest RTT, whose
// uncertainty radius follows from the speed of light in fibre. The
// paper reports ~100 km typical precision for the hybrid method, which
// the tests verify against the synthetic ground truth.
func Locate(ev Evidence) Estimate {
	if l, ok := ExtractAirportCode(ev.ReverseDNS); ok {
		return Estimate{
			Coord: l.Coord, Method: MethodReverseDNS,
			City: l.City, Country: l.Country,
			UncertaintyKm: 50,
		}
	}
	// Traceroute: the *last* locatable hop is the closest well-known
	// router to the target.
	for i := len(ev.Traceroute) - 1; i >= 0; i-- {
		if l, ok := ExtractAirportCode(ev.Traceroute[i].Name); ok {
			return Estimate{
				Coord: l.Coord, Method: MethodTraceroute,
				City: l.City, Country: l.Country,
				UncertaintyKm: 150,
			}
		}
	}
	if len(ev.Vantages) > 0 {
		best := shortestVantage(ev.Vantages)
		near := NearestAirport(best.Coord)
		unc := MaxDistanceKm(best.RTT)
		if unc < 100 {
			unc = 100
		}
		return Estimate{
			Coord: best.Coord, Method: MethodShortestRTT,
			City: near.City, Country: near.Country,
			UncertaintyKm: unc,
		}
	}
	return Estimate{}
}

// shortestVantage returns the measurement with the minimum RTT,
// breaking ties by name for determinism.
func shortestVantage(vs []VantageRTT) VantageRTT {
	best := vs[0]
	for _, v := range vs[1:] {
		if v.RTT < best.RTT || (v.RTT == best.RTT && v.Name < best.Name) {
			best = v
		}
	}
	return best
}
