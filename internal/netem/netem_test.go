package netem

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func newTestNet() *Network {
	return New(sim.NewClock(), sim.NewRNG(1))
}

func mustAirport(t *testing.T, code string) geo.Coord {
	t.Helper()
	l, ok := geo.LookupAirport(code)
	if !ok {
		t.Fatalf("airport %s missing", code)
	}
	return l.Coord
}

func TestAddAndLookupHosts(t *testing.T) {
	n := newTestNet()
	h := n.AddHost(&Host{Name: "client.sim", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	if got, ok := n.HostByName("client.sim"); !ok || got != h {
		t.Fatal("HostByName failed")
	}
	if got, ok := n.HostByAddr("10.0.0.1"); !ok || got != h {
		t.Fatal("HostByAddr failed")
	}
	if _, ok := n.HostByAddr("10.9.9.9"); ok {
		t.Fatal("lookup of unknown addr succeeded")
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	n := newTestNet()
	n.AddHost(&Host{Name: "a", Addr: "10.0.0.1"})
	for _, h := range []*Host{{Name: "a", Addr: "10.0.0.2"}, {Name: "b", Addr: "10.0.0.1"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %+v did not panic", h)
				}
			}()
			n.AddHost(h)
		}()
	}
}

func TestBaseRTTGeography(t *testing.T) {
	n := newTestNet()
	twente := n.AddHost(&Host{Name: "c", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	zrh := n.AddHost(&Host{Name: "z", Addr: "10.0.0.2", Coord: mustAirport(t, "ZRH")})
	iad := n.AddHost(&Host{Name: "i", Addr: "10.0.0.3", Coord: mustAirport(t, "IAD")})
	sea := n.AddHost(&Host{Name: "s", Addr: "10.0.0.4", Coord: mustAirport(t, "SEA")})

	near := n.BaseRTT(twente, zrh)
	mid := n.BaseRTT(twente, iad)
	far := n.BaseRTT(twente, sea)
	if !(near < mid && mid < far) {
		t.Fatalf("RTT ordering broken: %v %v %v", near, mid, far)
	}
	// European target: paper reports ~15-30 ms for nearby DCs.
	if near > 40*time.Millisecond {
		t.Fatalf("Twente-Zurich RTT = %v, want < 40ms", near)
	}
	// US-west target: paper reports ~160 ms for SkyDrive.
	if far < 110*time.Millisecond || far > 220*time.Millisecond {
		t.Fatalf("Twente-Seattle RTT = %v, want 110-220ms", far)
	}
}

func TestSampleRTTJitterBounds(t *testing.T) {
	n := newTestNet()
	n.JitterFraction = 0.2
	a := n.AddHost(&Host{Name: "a", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52, Lon: 6}})
	b := n.AddHost(&Host{Name: "b", Addr: "10.0.0.2", Coord: geo.Coord{Lat: 38, Lon: -77}})
	base := n.BaseRTT(a, b)
	lo, hi := base-base/10-time.Millisecond, base+base/10+time.Millisecond
	for i := 0; i < 200; i++ {
		s := n.SampleRTT(a, b)
		if s < lo || s > hi {
			t.Fatalf("sample %v outside [%v, %v]", s, lo, hi)
		}
	}
}

func TestSampleRTTNoJitterIsDeterministic(t *testing.T) {
	n := newTestNet()
	a := n.AddHost(&Host{Name: "a", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52, Lon: 6}})
	b := n.AddHost(&Host{Name: "b", Addr: "10.0.0.2", Coord: geo.Coord{Lat: 38, Lon: -77}})
	if n.SampleRTT(a, b) != n.BaseRTT(a, b) {
		t.Fatal("jitter-free sample differs from base")
	}
}

func TestPathRate(t *testing.T) {
	n := newTestNet()
	cases := []struct {
		ra, rb, want int64
	}{
		{0, 0, 0},
		{1e9, 0, 1e9},
		{0, 20e6, 20e6},
		{1e9, 20e6, 20e6},
		{10e6, 20e6, 10e6},
	}
	for _, c := range cases {
		a := &Host{RateBps: c.ra}
		b := &Host{RateBps: c.rb}
		if got := n.PathRateBps(a, b); got != c.want {
			t.Errorf("PathRate(%d,%d) = %d, want %d", c.ra, c.rb, got, c.want)
		}
	}
}

func TestTracerouteFinalHintNearDestination(t *testing.T) {
	n := newTestNet()
	src := n.AddHost(&Host{Name: "c", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	dst := n.AddHost(&Host{Name: "d", Addr: "10.0.0.2", Coord: mustAirport(t, "IAD")})
	hops := n.Traceroute(src, dst)
	if len(hops) < 3 {
		t.Fatalf("too few hops: %d", len(hops))
	}
	// Hop RTTs must be non-decreasing and end at the full path RTT.
	for i := 1; i < len(hops); i++ {
		if hops[i].RTT < hops[i-1].RTT {
			t.Fatal("hop RTTs decrease")
		}
	}
	if hops[len(hops)-1].RTT != n.BaseRTT(src, dst) {
		t.Fatal("last hop RTT != path RTT")
	}
	// The last *named* hop must geolocate near the destination.
	var lastNamed string
	for _, h := range hops {
		if h.Name != "" {
			lastNamed = h.Name
		}
	}
	l, ok := geo.ExtractAirportCode(lastNamed)
	if !ok {
		t.Fatalf("no airport hint in %q", lastNamed)
	}
	if d := geo.DistanceKm(l.Coord, dst.Coord); d > 300 {
		t.Fatalf("final hint %s is %.0f km from destination", l.Code, d)
	}
}

func TestTracerouteFeedsLocate(t *testing.T) {
	n := newTestNet()
	src := n.AddHost(&Host{Name: "c", Addr: "10.0.0.1", Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	dst := n.AddHost(&Host{Name: "d", Addr: "10.0.0.2", Coord: mustAirport(t, "SEA")})
	est := geo.Locate(geo.Evidence{
		IP:         dst.Addr,
		ReverseDNS: "opaque.example",
		Traceroute: n.Traceroute(src, dst),
	})
	if est.Method != geo.MethodTraceroute {
		t.Fatalf("method = %v", est.Method)
	}
	if d := geo.DistanceKm(est.Coord, dst.Coord); d > 300 {
		t.Fatalf("estimate %.0f km off", d)
	}
}

func TestAddrPool(t *testing.T) {
	p := NewAddrPool("54.231")
	first := p.Next()
	if first != "54.231.0.0" {
		t.Fatalf("first = %q", first)
	}
	seen := map[string]bool{first: true}
	for i := 0; i < 600; i++ {
		a := p.Next()
		if seen[a] {
			t.Fatalf("duplicate address %q", a)
		}
		if !strings.HasPrefix(a, "54.231.") {
			t.Fatalf("address %q outside prefix", a)
		}
		seen[a] = true
	}
}

// TestFrozenTopologySplit pins the static/per-run split: a frozen
// topology rejects new hosts, a run's hosts stay in that run, and the
// precomputed base-RTT row equals the geographic RTT it replaces.
func TestFrozenTopologySplit(t *testing.T) {
	vantage := geo.Coord{Lat: 52.22, Lon: 6.89}
	topo := NewTopology()
	var servers []*Host
	for i, code := range []string{"ZRH", "IAD", "SEA", "SIN"} {
		servers = append(servers, topo.AddHost(&Host{Name: code, Addr: "10.1.0." + strconv.Itoa(i+1), Coord: mustAirport(t, code)}))
	}
	topo.Freeze(vantage)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddHost on a frozen topology did not panic")
			}
		}()
		topo.AddHost(&Host{Name: "late", Addr: "10.1.0.9"})
	}()

	a, b := topo.NewNetwork(sim.NewClock(), sim.NewRNG(1)), topo.NewNetwork(sim.NewClock(), sim.NewRNG(1))
	client := a.AddHost(&Host{Name: "client.sim", Addr: "10.0.0.1", Coord: vantage})
	if h, ok := a.HostByAddr("10.0.0.1"); !ok || h != client {
		t.Fatal("run does not see its own host")
	}
	if _, ok := b.HostByName("client.sim"); ok {
		t.Fatal("a run's host leaked into another run on the same topology")
	}
	if h, ok := b.HostByName("SEA"); !ok || h != servers[2] {
		t.Fatal("run does not see the topology's hosts")
	}
	b.AddHost(&Host{Name: "client.sim", Addr: "10.0.0.1", Coord: vantage})
	for _, dup := range []*Host{{Name: "ZRH", Addr: "10.0.0.7"}, {Name: "x", Addr: "10.0.0.1"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate run host %+v did not panic", dup)
				}
			}()
			a.AddHost(dup)
		}()
	}

	// An open network computes the same RTTs from geography, from the
	// vantage (the row) and from anywhere else.
	probe := a.AddHost(&Host{Name: "probe.sim", Addr: "10.0.0.2", Coord: mustAirport(t, "SYD")})
	open := newTestNet()
	ref := open.AddHost(&Host{Name: "c", Addr: "10.0.0.1", Coord: vantage})
	refProbe := open.AddHost(&Host{Name: "p", Addr: "10.0.0.2", Coord: probe.Coord})
	for i, s := range servers {
		far := open.AddHost(&Host{Name: s.Name, Addr: "10.2.0." + strconv.Itoa(i+1), Coord: s.Coord})
		if got, want := a.BaseRTT(client, s), open.BaseRTT(ref, far); got != want {
			t.Errorf("%s: row RTT %v, geographic %v", s.Name, got, want)
		}
		if got, want := a.BaseRTT(s, client), open.BaseRTT(far, ref); got != want {
			t.Errorf("%s: reverse RTT %v, geographic %v", s.Name, got, want)
		}
		if got, want := a.BaseRTT(probe, s), open.BaseRTT(refProbe, far); got != want {
			t.Errorf("%s: off-vantage RTT %v, geographic %v", s.Name, got, want)
		}
	}
}

func TestCheckPath(t *testing.T) {
	for _, c := range []struct {
		loss, jitter float64
		ok           bool
	}{
		{0, 0, true},
		{0.999, 0.1, true},
		{1, 0, false},
		{-0.1, 0, false},
		{math.NaN(), 0, false},
		{0, -0.1, false},
		{0, math.Inf(1), false},
		{0, math.NaN(), false},
	} {
		if err := CheckPath(c.loss, c.jitter); (err == nil) != c.ok {
			t.Errorf("CheckPath(%v, %v) = %v, want ok=%v", c.loss, c.jitter, err, c.ok)
		}
	}
}
