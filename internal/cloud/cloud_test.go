package cloud

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/whois"
)

func buildService(t *testing.T, name string) (*netem.Network, *dnssim.System, *whois.Registry, *Deployment) {
	t.Helper()
	n := netem.New(sim.NewClock(), sim.NewRNG(1))
	dns := dnssim.NewSystem(sim.NewRNG(2))
	reg := whois.NewRegistry()
	d := Build(n, dns, reg, SpecFor(name))
	return n, dns, reg, d
}

func TestSpecForAllServices(t *testing.T) {
	for _, s := range ServiceNames {
		spec := SpecFor(s)
		if spec.Service != s {
			t.Errorf("SpecFor(%q).Service = %q", s, spec.Service)
		}
		if len(spec.Sites) == 0 {
			t.Errorf("%s has no sites", s)
		}
	}
}

func TestSpecForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SpecFor("icloud")
}

func TestDropboxSplitControlStorage(t *testing.T) {
	_, dns, reg, d := buildService(t, "dropbox")
	ctl := d.HostsByRole(Control)
	sto := d.HostsByRole(Storage)
	if len(ctl) == 0 || len(sto) == 0 {
		t.Fatal("missing roles")
	}
	// Control is Dropbox-owned; storage is on Amazon (Sect. 3.2).
	rec, ok := reg.Lookup(ctl[0].Addr)
	if !ok || !strings.Contains(rec.Owner, "Dropbox") {
		t.Fatalf("control owner = %+v", rec)
	}
	rec, ok = reg.Lookup(sto[0].Addr)
	if !ok || !strings.Contains(rec.Owner, "Amazon") {
		t.Fatalf("storage owner = %+v", rec)
	}
	// Separate DNS names for control and storage.
	if d.DNSName(Control) == d.DNSName(Storage) {
		t.Fatal("control and storage share a DNS name")
	}
	if got := dns.Resolve(d.DNSName(Storage), geo.Coord{}); len(got) == 0 {
		t.Fatal("storage name does not resolve")
	}
	// Notification channel exists (plain-HTTP notifications).
	if len(d.HostsByRole(Notification)) == 0 {
		t.Fatal("dropbox needs notification servers")
	}
}

func TestWualaNoSplitAndEuropeanOnly(t *testing.T) {
	_, _, reg, d := buildService(t, "wuala")
	for _, h := range append(d.HostsByRole(Control), d.HostsByRole(Storage)...) {
		if h.Coord.Lon < -10 || h.Coord.Lon > 20 || h.Coord.Lat < 40 || h.Coord.Lat > 55 {
			t.Fatalf("host %s outside Europe: %v", h.Name, h.Coord)
		}
		rec, ok := reg.Lookup(h.Addr)
		if !ok || strings.Contains(rec.Owner, "Wuala") {
			t.Fatalf("Wuala host owned by %+v — paper: none owned by Wuala", rec)
		}
	}
	// Same sites serve both roles: every control addr is also a
	// storage addr (no split).
	sto := map[string]bool{}
	for _, h := range d.HostsByRole(Storage) {
		sto[h.Addr] = true
	}
	if len(d.HostsByRole(Control)) != len(d.HostsByRole(Storage)) {
		t.Fatal("control/storage fleets differ for Wuala")
	}
}

func TestGoogleDriveEdgeNetwork(t *testing.T) {
	_, dns, _, d := buildService(t, "googledrive")
	edges := d.HostsByRole(Edge)
	if len(edges) <= 100 {
		t.Fatalf("edge count = %d, paper found > 100 entry points", len(edges))
	}
	// DNS steering: a query from Europe and one from Asia see
	// different, nearby edges.
	eu := dns.Resolve(d.DNSName(Edge), geo.Coord{Lat: 52.22, Lon: 6.89})
	asia := dns.Resolve(d.DNSName(Edge), geo.Coord{Lat: 1.35, Lon: 103.82})
	if len(eu) == 0 || len(asia) == 0 || eu[0] == asia[0] {
		t.Fatalf("edge steering failed: eu=%v asia=%v", eu, asia)
	}
	// NearestEdge helper agrees with DNS.
	got := d.NearestEdge(geo.Coord{Lat: 52.22, Lon: 6.89})
	if got.Addr != eu[0] {
		t.Fatalf("NearestEdge %s != DNS answer %s", got.Addr, eu[0])
	}
}

func TestNearestEdgePanicsWithoutEdges(t *testing.T) {
	_, _, _, d := buildService(t, "dropbox")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.NearestEdge(geo.Coord{})
}

func TestCloudDriveThreeAWSRegions(t *testing.T) {
	_, _, reg, d := buildService(t, "clouddrive")
	prefixes := map[string]bool{}
	for _, h := range d.HostsByRole(Storage) {
		rec, ok := reg.Lookup(h.Addr)
		if !ok || !strings.Contains(rec.Owner, "Amazon") {
			t.Fatalf("storage not on Amazon: %+v", rec)
		}
		parts := strings.SplitN(h.Addr, ".", 3)
		prefixes[parts[0]+"."+parts[1]] = true
	}
	if len(prefixes) != 3 {
		t.Fatalf("storage prefixes = %d, want 3 AWS regions", len(prefixes))
	}
	// Control only in two of them (no Oregon control).
	ctlPrefixes := map[string]bool{}
	for _, h := range d.HostsByRole(Control) {
		parts := strings.SplitN(h.Addr, ".", 3)
		ctlPrefixes[parts[0]+"."+parts[1]] = true
	}
	if len(ctlPrefixes) != 2 {
		t.Fatalf("control prefixes = %d, want 2", len(ctlPrefixes))
	}
}

func TestSkyDriveLoginFanOut(t *testing.T) {
	_, _, _, d := buildService(t, "skydrive")
	if d.Spec.LoginServerCount != 13 {
		t.Fatalf("login servers = %d, paper observed 13", d.Spec.LoginServerCount)
	}
	if got := len(d.HostsByRole(Control)); got < 13 {
		t.Fatalf("control fleet = %d, must cover login fan-out", got)
	}
}

func TestPTRHintsFeedGeolocation(t *testing.T) {
	_, dns, _, d := buildService(t, "dropbox")
	h := d.HostsByRole(Storage)[0]
	ptr := dns.ReverseLookup(h.Addr)
	if ptr == "" {
		t.Fatal("no PTR record")
	}
	l, ok := geo.ExtractAirportCode(ptr)
	if !ok {
		t.Fatalf("PTR %q has no airport hint", ptr)
	}
	if geo.DistanceKm(l.Coord, h.Coord) > 300 {
		t.Fatalf("PTR hint %s is far from host", l.Code)
	}
}

func TestOpaquePTRForSkyDrive(t *testing.T) {
	_, dns, _, d := buildService(t, "skydrive")
	h := d.HostsByRole(Storage)[0]
	if _, ok := geo.ExtractAirportCode(dns.ReverseLookup(h.Addr)); ok {
		t.Fatal("SkyDrive PTR should be opaque (forces RTT/traceroute fallback)")
	}
}

func TestStoreSharedAcrossService(t *testing.T) {
	_, _, _, d := buildService(t, "dropbox")
	if d.Store == nil || d.Store.UniqueChunks() != 0 {
		t.Fatal("store must start empty")
	}
	d.Store.Put([]byte("chunk"))
	if d.Store.UniqueChunks() != 1 {
		t.Fatal("store broken")
	}
}

func TestRoleStrings(t *testing.T) {
	if Control.String() != "control" || Storage.String() != "storage" ||
		Notification.String() != "notify" || Edge.String() != "edge" {
		t.Fatal("role names feed DNS names; they must be stable")
	}
}

// TestHostAndPTRNames pins every host name and reverse-DNS name of the
// five deployments to their defining formats, with the PTR airport
// looked up per host as the names are specified: Build resolves it
// once per site and builds names without fmt, and neither may change a
// byte.
func TestHostAndPTRNames(t *testing.T) {
	for _, svc := range ServiceNames {
		_, dns, _, d := buildService(t, svc)
		next := map[Role]int{}
		for _, site := range d.Spec.Sites {
			servers := site.Servers
			if servers <= 0 {
				servers = 2
			}
			for _, role := range site.Roles {
				for i := 0; i < servers; i++ {
					h := d.HostsByRole(role)[next[role]]
					next[role]++
					if want := fmt.Sprintf("%s%d.%s.%s.sim", role, i, site.Name, svc); h.Name != want {
						t.Fatalf("%s: host name %q, want %q", svc, h.Name, want)
					}
					want := fmt.Sprintf("%s-%d.%s.example", role, i, site.Name)
					if site.PTRHint {
						air := geo.NearestAirport(h.Coord)
						want = fmt.Sprintf("%s-%s%d-%d.net.example", role, strings.ToLower(air.Code), 1+i/8, i)
					}
					if got := dns.ReverseLookup(h.Addr); got != want {
						t.Fatalf("%s: PTR of %s is %q, want %q", svc, h.Name, got, want)
					}
				}
			}
		}
	}
}
