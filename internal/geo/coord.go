// Package geo provides the geographic substrate for the reproduction:
// coordinates, great-circle distances, an airport-code landmark
// database, a propagation-delay model, and the paper's hybrid server
// geolocation methodology (Sect. 2.1).
//
// The paper locates cloud front-ends by combining (i) airport codes
// embedded in reverse-DNS names, (ii) the shortest RTT to PlanetLab
// vantage points, and (iii) traceroute towards the target to find the
// closest well-known router location. All three techniques are
// implemented here and run against the synthetic Internet built by
// internal/netem and internal/dnssim.
package geo

import (
	"fmt"
	"math"
)

// Coord is a point on the Earth's surface in decimal degrees.
type Coord struct {
	Lat float64 // positive north
	Lon float64 // positive east
}

// String formats the coordinate as "52.22N 6.89E".
func (c Coord) String() string {
	ns, ew := "N", "E"
	lat, lon := c.Lat, c.Lon
	if lat < 0 {
		ns, lat = "S", -lat
	}
	if lon < 0 {
		ew, lon = "W", -lon
	}
	return fmt.Sprintf("%.2f%s %.2f%s", lat, ns, lon, ew)
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between two
// coordinates in kilometres.
func DistanceKm(a, b Coord) float64 {
	const rad = math.Pi / 180
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	la1, la2 := a.Lat*rad, b.Lat*rad
	sLat, sLon := math.Sin(dLat/2), math.Sin(dLon/2)
	h := sLat*sLat + math.Cos(la1)*math.Cos(la2)*sLon*sLon
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Midpoint returns the midpoint of the great-circle segment between a
// and b. It is used when two landmark hints disagree.
func Midpoint(a, b Coord) Coord {
	const rad = math.Pi / 180
	la1, lo1 := a.Lat*rad, a.Lon*rad
	la2, lo2 := b.Lat*rad, b.Lon*rad
	bx := math.Cos(la2) * math.Cos(lo2-lo1)
	by := math.Cos(la2) * math.Sin(lo2-lo1)
	lat := math.Atan2(math.Sin(la1)+math.Sin(la2),
		math.Sqrt((math.Cos(la1)+bx)*(math.Cos(la1)+bx)+by*by))
	lon := lo1 + math.Atan2(by, math.Cos(la1)+bx)
	return Coord{Lat: lat / rad, Lon: lon / rad}
}
