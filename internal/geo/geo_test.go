package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// Ground-truth distances (great circle, approximate).
func TestDistanceKnownPairs(t *testing.T) {
	ams, _ := LookupAirport("AMS")
	iad, _ := LookupAirport("IAD")
	sin, _ := LookupAirport("SIN")
	zrh, _ := LookupAirport("ZRH")
	cases := []struct {
		a, b    Coord
		wantKm  float64
		within  float64
		comment string
	}{
		{ams.Coord, iad.Coord, 6200, 300, "Amsterdam-Washington"},
		{ams.Coord, sin.Coord, 10500, 400, "Amsterdam-Singapore"},
		{ams.Coord, zrh.Coord, 600, 100, "Amsterdam-Zurich"},
		{ams.Coord, ams.Coord, 0, 0.001, "identity"},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.within {
			t.Errorf("%s: distance = %.0f km, want %.0f±%.0f", c.comment, got, c.wantKm, c.within)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 uint16) bool {
		a := Coord{Lat: float64(lat1%180) - 90, Lon: float64(lon1%360) - 180}
		b := Coord{Lat: float64(lat2%180) - 90, Lon: float64(lon2%360) - 180}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 20040 // half circumference
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceMatchesHaversineFormula pins DistanceKm bit for bit to
// the textbook haversine expression, each sine evaluated where it
// appears: every simulated RTT and nearest-airport choice derives from
// it, so a rewrite for speed must not move a single bit.
func TestDistanceMatchesHaversineFormula(t *testing.T) {
	ref := func(a, b Coord) float64 {
		const rad = math.Pi / 180
		dLat := (b.Lat - a.Lat) * rad
		dLon := (b.Lon - a.Lon) * rad
		la1, la2 := a.Lat*rad, b.Lat*rad
		h := math.Sin(dLat/2)*math.Sin(dLat/2) +
			math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
		return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
	}
	f := func(lat1, lon1, lat2, lon2 int32) bool {
		a := Coord{Lat: float64(lat1%90_000) / 1000, Lon: float64(lon1%180_000) / 1000}
		b := Coord{Lat: float64(lat2%90_000) / 1000, Lon: float64(lon2%180_000) / 1000}
		return math.Float64bits(DistanceKm(a, b)) == math.Float64bits(ref(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range Airports() {
		for _, b := range Airports() {
			if math.Float64bits(DistanceKm(a.Coord, b.Coord)) != math.Float64bits(ref(a.Coord, b.Coord)) {
				t.Fatalf("DistanceKm(%s, %s) differs from the haversine formula", a.Code, b.Code)
			}
		}
	}
}

func TestMidpoint(t *testing.T) {
	a := Coord{0, 0}
	b := Coord{0, 90}
	m := Midpoint(a, b)
	if math.Abs(m.Lat) > 0.01 || math.Abs(m.Lon-45) > 0.01 {
		t.Fatalf("midpoint = %v, want 0,45", m)
	}
}

func TestCoordString(t *testing.T) {
	c := Coord{52.22, -6.89}
	if got := c.String(); got != "52.22N 6.89W" {
		t.Fatalf("String = %q", got)
	}
	c = Coord{-33.95, 151.18}
	if got := c.String(); got != "33.95S 151.18E" {
		t.Fatalf("String = %q", got)
	}
}

func TestLookupAirportCaseInsensitive(t *testing.T) {
	for _, code := range []string{"ams", "AMS", "Ams"} {
		if _, ok := LookupAirport(code); !ok {
			t.Fatalf("LookupAirport(%q) failed", code)
		}
	}
	if _, ok := LookupAirport("ZZZ"); ok {
		t.Fatal("LookupAirport(ZZZ) unexpectedly succeeded")
	}
}

func TestAirportsReturnsCopy(t *testing.T) {
	a := Airports()
	a[0].Code = "XXX"
	if airports[0].Code == "XXX" {
		t.Fatal("Airports leaked internal slice")
	}
}

func TestNearestAirport(t *testing.T) {
	// Enschede (Twente testbed) is closest to Amsterdam in our DB.
	got := NearestAirport(Coord{52.22, 6.89})
	if got.Code != "AMS" && got.Code != "FRA" {
		t.Fatalf("NearestAirport(Twente) = %s, want AMS (or FRA)", got.Code)
	}
}

func TestExtractAirportCode(t *testing.T) {
	cases := []struct {
		host string
		want string
		ok   bool
	}{
		{"r1.iad05.net.example.com", "IAD", true},
		{"edge-ams-2.example.com", "AMS", true},
		{"sea09s01-in-f14.1e100.net", "SEA", true},
		{"ae-1-51.nue2.example.net", "NUE", true},
		{"core_zrh_7.example.org", "ZRH", true},
		{"server.example.com", "", false},
		{"", "", false},
		{"amsterdam.example.com", "", false}, // full word, not a 3-letter label
	}
	for _, c := range cases {
		l, ok := ExtractAirportCode(c.host)
		if ok != c.ok || (ok && l.Code != c.want) {
			t.Errorf("ExtractAirportCode(%q) = %v,%v, want %v,%v", c.host, l.Code, ok, c.want, c.ok)
		}
	}
}

func TestPropagationRTTMonotonicInDistance(t *testing.T) {
	ams, _ := LookupAirport("AMS")
	zrh, _ := LookupAirport("ZRH")
	iad, _ := LookupAirport("IAD")
	sin, _ := LookupAirport("SIN")
	near := PropagationRTT(ams.Coord, zrh.Coord)
	mid := PropagationRTT(ams.Coord, iad.Coord)
	far := PropagationRTT(ams.Coord, sin.Coord)
	if !(near < mid && mid < far) {
		t.Fatalf("RTT not monotonic: %v %v %v", near, mid, far)
	}
	// Sanity: transatlantic RTT should land in the 80-130 ms band the
	// paper implies for EU->US-east paths.
	if mid < 80*time.Millisecond || mid > 130*time.Millisecond {
		t.Fatalf("AMS-IAD RTT = %v, want 80-130 ms", mid)
	}
}

func TestInflatedRTTClampsBelowOne(t *testing.T) {
	a, b := Coord{0, 0}, Coord{0, 10}
	if InflatedRTT(a, b, 0.2) != InflatedRTT(a, b, 1.0) {
		t.Fatal("inflation < 1 not clamped")
	}
}

func TestMaxDistanceKm(t *testing.T) {
	// 12 ms RTT leaves 10 ms after base cost: 5 ms one way = 1000 km.
	got := MaxDistanceKm(12 * time.Millisecond)
	if math.Abs(got-1000) > 1 {
		t.Fatalf("MaxDistanceKm(12ms) = %.1f, want 1000", got)
	}
	if MaxDistanceKm(0) != 0 {
		t.Fatal("MaxDistanceKm(0) != 0")
	}
}

func TestLocatePrefersReverseDNS(t *testing.T) {
	ams, _ := LookupAirport("AMS")
	est := Locate(Evidence{
		IP:         "10.0.0.1",
		ReverseDNS: "edge-ams-1.google.example",
		Vantages: []VantageRTT{
			{Name: "v-sin", Coord: Coord{1.36, 103.99}, RTT: 5 * time.Millisecond},
		},
	})
	if est.Method != MethodReverseDNS {
		t.Fatalf("method = %v, want reverse-dns", est.Method)
	}
	if DistanceKm(est.Coord, ams.Coord) > 1 {
		t.Fatalf("estimate at %v, want AMS", est.Coord)
	}
}

func TestLocateTracerouteFallback(t *testing.T) {
	est := Locate(Evidence{
		IP:         "10.0.0.2",
		ReverseDNS: "opaque-host.example",
		Traceroute: []Hop{
			{Name: "core-lhr-1.example.net", RTT: 4 * time.Millisecond},
			{Name: "ae0.fra3.example.net", RTT: 9 * time.Millisecond},
			{Name: "unresolved", RTT: 11 * time.Millisecond},
		},
	})
	if est.Method != MethodTraceroute {
		t.Fatalf("method = %v, want traceroute", est.Method)
	}
	// Last locatable hop wins (FRA, not LHR).
	fra, _ := LookupAirport("FRA")
	if DistanceKm(est.Coord, fra.Coord) > 1 {
		t.Fatalf("estimate at %v, want FRA", est.Coord)
	}
}

func TestLocateShortestRTTFallback(t *testing.T) {
	zrh, _ := LookupAirport("ZRH")
	est := Locate(Evidence{
		IP: "10.0.0.3",
		Vantages: []VantageRTT{
			{Name: "v-zrh", Coord: zrh.Coord, RTT: 3 * time.Millisecond},
			{Name: "v-sin", Coord: Coord{1.36, 103.99}, RTT: 180 * time.Millisecond},
		},
	})
	if est.Method != MethodShortestRTT {
		t.Fatalf("method = %v, want shortest-rtt", est.Method)
	}
	if DistanceKm(est.Coord, zrh.Coord) > 1 {
		t.Fatalf("estimate at %v, want ZRH vantage", est.Coord)
	}
	if est.UncertaintyKm < 100 {
		t.Fatalf("uncertainty = %.0f km, want >= 100", est.UncertaintyKm)
	}
}

func TestLocateNoEvidence(t *testing.T) {
	est := Locate(Evidence{IP: "10.0.0.4"})
	if est.Located() {
		t.Fatal("located with no evidence")
	}
}

// End-to-end accuracy check: with a world-wide vantage mesh and the
// propagation model as ground truth, hybrid geolocation should land
// within the paper's claimed ~100 km for targets at a vantage city,
// and within the uncertainty radius everywhere.
func TestLocateAccuracyAgainstGroundTruth(t *testing.T) {
	vantages := Airports()
	for _, target := range []string{"IAD", "SEA", "NUE", "ZRH", "SIN", "DUB", "PDX"} {
		tgt, _ := LookupAirport(target)
		var vs []VantageRTT
		for _, v := range vantages {
			if v.Code == target {
				continue // never measure from the target city itself
			}
			vs = append(vs, VantageRTT{
				Name:  "v-" + v.Code,
				Coord: v.Coord,
				RTT:   PropagationRTT(v.Coord, tgt.Coord),
			})
		}
		est := Locate(Evidence{IP: "ip-" + target, Vantages: vs})
		if !est.Located() {
			t.Fatalf("%s: not located", target)
		}
		err := DistanceKm(est.Coord, tgt.Coord)
		if err > est.UncertaintyKm {
			t.Errorf("%s: error %.0f km exceeds claimed uncertainty %.0f km", target, err, est.UncertaintyKm)
		}
	}
}

func TestRankVantagesSorted(t *testing.T) {
	vs := []VantageRTT{
		{Name: "b", RTT: 9 * time.Millisecond},
		{Name: "a", RTT: 3 * time.Millisecond},
		{Name: "c", RTT: 3 * time.Millisecond},
	}
	got := RankVantages(vs)
	if got[0].Name != "a" || got[1].Name != "c" || got[2].Name != "b" {
		t.Fatalf("rank order = %v", got)
	}
	if vs[0].Name != "b" {
		t.Fatal("RankVantages mutated input")
	}
}

func TestMethodString(t *testing.T) {
	if MethodNone.String() != "none" || MethodReverseDNS.String() != "reverse-dns" ||
		MethodTraceroute.String() != "traceroute" || MethodShortestRTT.String() != "shortest-rtt" {
		t.Fatal("Method.String mismatch")
	}
}
