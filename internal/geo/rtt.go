package geo

import "time"

// The propagation model converts great-circle distance into round-trip
// time. Light in fibre travels at roughly 2/3 c (~200 km/ms one way),
// and real Internet paths are longer than the great circle: published
// measurements put the median path-inflation factor around 1.5-2.0.
// On top of propagation, every path pays a small fixed cost for
// serialization, queuing and the access network.
const (
	// fibreKmPerMs is the one-way distance light covers per
	// millisecond in fibre (2/3 of c).
	fibreKmPerMs = 200.0

	// basePathCost is the distance-independent RTT floor (access
	// links, serialization, forwarding).
	basePathCost = 2 * time.Millisecond
)

// InflatedRTT estimates RTT with an explicit path-inflation factor.
// Inflation below 1 is treated as 1 (a routed path cannot be shorter
// than the great circle).
func InflatedRTT(a, b Coord, inflation float64) time.Duration {
	if inflation < 1 {
		inflation = 1
	}
	oneWayMs := DistanceKm(a, b) * inflation / fibreKmPerMs
	return basePathCost + time.Duration(2*oneWayMs*float64(time.Millisecond))
}

// MaxDistanceKm bounds how far a host can be, given a measured RTT:
// even on a perfectly straight fibre the signal cannot have travelled
// further than rtt/2 * 200 km/ms. This is the constraint used by the
// shortest-RTT geolocation step (a measured 10 ms RTT proves the target
// is within ~1,000 km).
func MaxDistanceKm(rtt time.Duration) float64 {
	budget := rtt - basePathCost
	if budget < 0 {
		budget = 0
	}
	return budget.Seconds() * 1000 / 2 * fibreKmPerMs
}
