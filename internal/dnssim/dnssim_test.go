package dnssim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
)

func TestStaticPoolAllAndSubset(t *testing.T) {
	rng := sim.NewRNG(1)
	p := &StaticPool{IPs: []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"}}
	if got := p.AppendAnswer(nil, geo.Coord{}, rng); len(got) != 3 {
		t.Fatalf("all: %v", got)
	}
	p.K = 2
	got := p.AppendAnswer(nil, geo.Coord{}, rng)
	if len(got) != 2 {
		t.Fatalf("subset: %v", got)
	}
	for _, ip := range got {
		if ip != "1.1.1.1" && ip != "2.2.2.2" && ip != "3.3.3.3" {
			t.Fatalf("unknown ip %q", ip)
		}
	}
}

func TestStaticPoolRotationCoversPool(t *testing.T) {
	rng := sim.NewRNG(7)
	p := &StaticPool{IPs: []string{"1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"}, K: 1}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		for _, ip := range p.AppendAnswer(nil, geo.Coord{}, rng) {
			seen[ip] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("rotation covered %d of 4", len(seen))
	}
}

// TestStaticPoolAnswerAllocatesOnlyItsResult pins the rotation's cost:
// the permutation lives on the stack, so a fresh answer slice is the
// only allocation per query, and a reused scratch slice makes the
// query allocation-free.
func TestStaticPoolAnswerAllocatesOnlyItsResult(t *testing.T) {
	ips := make([]string, 28)
	for i := range ips {
		ips[i] = fmt.Sprintf("54.239.0.%d", i+1)
	}
	p := &StaticPool{IPs: ips, K: 4}
	for anti, rng := range []*sim.RNG{sim.NewRNG(5), sim.NewAntitheticRNG(5)} {
		if n := testing.AllocsPerRun(100, func() { p.AppendAnswer(nil, geo.Coord{}, rng) }); n != 1 {
			t.Fatalf("antithetic=%v: AppendAnswer(nil) allocates %v times per query, want 1", anti == 1, n)
		}
		scratch := make([]string, 0, p.K)
		if n := testing.AllocsPerRun(100, func() { scratch = p.AppendAnswer(scratch[:0], geo.Coord{}, rng) }); n != 0 {
			t.Fatalf("antithetic=%v: AppendAnswer(scratch) allocates %v times per query, want 0", anti == 1, n)
		}
	}
}

// TestAppendResolveMatchesResolve pins that a scratch-slice resolve
// is the same query as Resolve: equal answers from the same draws, and
// the answer appended after whatever dst already holds.
func TestAppendResolveMatchesResolve(t *testing.T) {
	ips := make([]string, 12)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.3.0.%d", i+1)
	}
	a, b := NewSystem(sim.NewRNG(9)), NewSystem(sim.NewRNG(9))
	for _, s := range []*System{a, b} {
		s.SetPolicy("pool.sim", &StaticPool{IPs: ips, K: 4})
	}
	scratch := []string{"keep"}
	for i := 0; i < 50; i++ {
		want := a.Resolve("pool.sim", geo.Coord{})
		scratch = b.AppendResolve(scratch[:1], "pool.sim", geo.Coord{})
		if scratch[0] != "keep" || fmt.Sprint(scratch[1:]) != fmt.Sprint(want) {
			t.Fatalf("query %d: AppendResolve = %v, Resolve = %v", i, scratch, want)
		}
	}
	if got := b.AppendResolve(scratch[:0], "nx.sim", geo.Coord{}); len(got) != 0 {
		t.Fatalf("NXDOMAIN appended %v", got)
	}
}

// TestFrozenZoneIsShared pins the static/per-run split: a frozen zone
// rejects changes, and Systems over it share its records while each
// rotates with its own RNG.
func TestFrozenZoneIsShared(t *testing.T) {
	z := NewZone()
	z.SetPolicy("pool.sim", &StaticPool{IPs: []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"}, K: 1})
	z.SetPTR("1.1.1.1", "one.example")
	z.Freeze()
	s1, s2 := z.NewSystem(sim.NewRNG(1)), z.NewSystem(sim.NewRNG(1))
	for i := 0; i < 20; i++ {
		if a, b := s1.Resolve("pool.sim", geo.Coord{}), s2.Resolve("pool.sim", geo.Coord{}); a[0] != b[0] {
			t.Fatalf("query %d: equal-seed systems answered %v and %v", i, a, b)
		}
	}
	if s2.ReverseLookup("1.1.1.1") != "one.example" {
		t.Fatal("system does not see the zone's PTR records")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPTR on a frozen zone did not panic")
		}
	}()
	s1.SetPTR("2.2.2.2", "two.example")
}

func TestNearestEdgeSteering(t *testing.T) {
	ams, _ := geo.LookupAirport("AMS")
	sin, _ := geo.LookupAirport("SIN")
	iad, _ := geo.LookupAirport("IAD")
	edges := []*netem.Host{
		{Name: "edge-ams", Addr: "10.1.0.1", Coord: ams.Coord},
		{Name: "edge-sin", Addr: "10.1.0.2", Coord: sin.Coord},
		{Name: "edge-iad", Addr: "10.1.0.3", Coord: iad.Coord},
	}
	p := &NearestEdge{Edges: edges}
	if got := p.AppendAnswer(nil, geo.Coord{Lat: 52, Lon: 6}, nil); got[0] != "10.1.0.1" {
		t.Fatalf("EU query -> %v, want AMS edge", got)
	}
	if got := p.AppendAnswer(nil, geo.Coord{Lat: 1.3, Lon: 103}, nil); got[0] != "10.1.0.2" {
		t.Fatalf("SG query -> %v, want SIN edge", got)
	}
	p.K = 2
	if got := p.AppendAnswer(nil, geo.Coord{Lat: 40, Lon: -75}, nil); len(got) != 2 || got[0] != "10.1.0.3" {
		t.Fatalf("US query K=2 -> %v", got)
	}
	p.K = 99
	if got := p.AppendAnswer(nil, geo.Coord{}, nil); len(got) != 3 {
		t.Fatalf("K clamp: %v", got)
	}
}

func TestSystemResolveAndPTR(t *testing.T) {
	s := NewSystem(sim.NewRNG(1))
	s.SetPolicy("Storage.Example", &StaticPool{IPs: []string{"5.5.5.5"}})
	s.SetPTR("5.5.5.5", "s1.iad1.example.net")
	if got := s.Resolve("storage.example", geo.Coord{}); len(got) != 1 || got[0] != "5.5.5.5" {
		t.Fatalf("Resolve = %v (case-insensitive names expected)", got)
	}
	if got := s.Resolve("nx.example", geo.Coord{}); got != nil {
		t.Fatalf("NXDOMAIN returned %v", got)
	}
	if got := s.ReverseLookup("5.5.5.5"); got != "s1.iad1.example.net" {
		t.Fatalf("PTR = %q", got)
	}
	if got := s.ReverseLookup("9.9.9.9"); got != "" {
		t.Fatalf("missing PTR = %q", got)
	}
}

func TestFanOutEnumeratesGeoPools(t *testing.T) {
	// A nearest-edge policy hides most edges from any single
	// resolver; only fan-out across the world reveals the fleet.
	rng := sim.NewRNG(3)
	var edges []*netem.Host
	for i, a := range geo.Airports() {
		edges = append(edges, &netem.Host{
			Name:  "edge-" + strings.ToLower(a.Code),
			Addr:  "10.2.0." + itoa(i),
			Coord: a.Coord,
		})
	}
	s := NewSystem(rng)
	s.SetPolicy("clients.gdrive.sim", &NearestEdge{Edges: edges})

	single := s.Resolve("clients.gdrive.sim", geo.Coord{Lat: 52, Lon: 6})
	if len(single) != 1 {
		t.Fatalf("single query returned %d edges", len(single))
	}
	resolvers := GenerateResolvers(rng, 2000, 5)
	union := s.FanOut("clients.gdrive.sim", resolvers)
	if len(union) < len(edges)/2 {
		t.Fatalf("fan-out found %d of %d edges", len(union), len(edges))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestGenerateResolversSpread(t *testing.T) {
	rs := GenerateResolvers(sim.NewRNG(1), 2000, 5)
	if len(rs) != 2000 {
		t.Fatalf("count = %d", len(rs))
	}
	countries := map[string]bool{}
	isps := map[string]bool{}
	for _, r := range rs {
		countries[r.Country] = true
		isps[r.ISP] = true
		if r.Coord.Lat < -90 || r.Coord.Lat > 90 || r.Coord.Lon < -180 || r.Coord.Lon > 180 {
			t.Fatalf("resolver %s has invalid coord %v", r.Name, r.Coord)
		}
	}
	// Paper: >100 countries, >500 ISPs.
	if len(countries) <= 100 {
		t.Fatalf("countries = %d, want > 100", len(countries))
	}
	if len(isps) <= 500 {
		t.Fatalf("ISPs = %d, want > 500", len(isps))
	}
}

func TestGenerateResolversDeterministic(t *testing.T) {
	a := GenerateResolvers(sim.NewRNG(5), 50, 2)
	b := GenerateResolvers(sim.NewRNG(5), 50, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("resolver generation not deterministic")
		}
	}
}
