package core

import (
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/workload"
)

// ServerRecord is everything the discovery pipeline learned about one
// front-end address (Sect. 2.1).
type ServerRecord struct {
	IP         string
	DNSName    string // the service name that resolved to this IP
	ReverseDNS string
	Owner      string
	Location   geo.Estimate
}

// Discovery is the architecture-discovery result for one service: the
// data of Sect. 3.2 and, for Google Drive, Fig. 2.
type Discovery struct {
	Service string
	// Names are the service DNS names observed in the client's
	// traffic during start, sync and idle phases.
	Names []string
	// Servers are all front-end addresses found by resolver fan-out.
	Servers []ServerRecord
	// Owners are the distinct whois owners.
	Owners []string
	// Countries/Cities count located front-ends per place.
	Countries map[string]int
	Cities    map[string]int
}

// NumResolvers is the fan-out width: "more than 2,000 open DNS
// resolvers spread around the world".
const NumResolvers = 2000

// Discover runs the full Sect. 2.1 pipeline for one service:
//
//  1. observe the DNS names the client contacts when starting, after
//     manipulating files, and while idle;
//  2. resolve each name through >2,000 open resolvers world-wide and
//     union the answers;
//  3. identify owners via whois;
//  4. geolocate every address with the hybrid methodology
//     (reverse-DNS airport codes, shortest RTT to vantage points,
//     traceroute).
func Discover(p client.Profile, seed int64) Discovery {
	// Phase 1: drive the client through start / file sync / idle and
	// collect contacted names from the trace.
	probe := workload.Batch{Count: 3, Size: 50_000, Kind: workload.Binary}
	tb, _ := syncCell{p: p, batch: probe, host: campusHost}.syncOnce(seed, false)
	tb.Client.InstallPoller(tb.Sched)
	tb.Sched.RunUntil(tb.Clock.Now().Add(5 * time.Minute))

	nameSet := map[string]bool{}
	for _, f := range tb.Cap.Flows() {
		nameSet[f.ServerName] = true
	}
	d := Discovery{
		Service:   p.Service,
		Countries: map[string]int{},
		Cities:    map[string]int{},
	}
	for n := range nameSet {
		d.Names = append(d.Names, n)
	}
	sort.Strings(d.Names)

	// Phase 2: resolver fan-out.
	resolvers := dnssim.GenerateResolvers(tb.RNG.Fork(99), NumResolvers, 5)
	ipSet := map[string]string{} // ip -> name
	for _, n := range d.Names {
		for _, ip := range tb.DNS.FanOut(n, resolvers) {
			ipSet[ip] = n
		}
	}

	// Vantage points for the shortest-RTT step: PlanetLab-like nodes
	// at every landmark city, instantiated as real emulated hosts so
	// RTTs are measured, not computed from ground truth.
	vantages := makeVantages(tb.Net)

	ips := make([]string, 0, len(ipSet))
	for ip := range ipSet {
		ips = append(ips, ip)
	}
	sort.Strings(ips)

	ownerSet := map[string]bool{}
	for _, ip := range ips {
		target, ok := tb.Net.HostByAddr(ip)
		if !ok {
			continue
		}
		rec := ServerRecord{IP: ip, DNSName: ipSet[ip]}
		rec.ReverseDNS = tb.DNS.ReverseLookup(ip)
		if w, ok := tb.Whois.Lookup(ip); ok {
			rec.Owner = w.Owner
		} else {
			rec.Owner = "UNKNOWN"
		}
		ownerSet[rec.Owner] = true

		ev := geo.Evidence{
			IP:         ip,
			ReverseDNS: rec.ReverseDNS,
			Traceroute: tb.Net.Traceroute(tb.Client.Host, target),
		}
		for _, v := range vantages {
			ev.Vantages = append(ev.Vantages, geo.VantageRTT{
				Name: v.Name, Coord: v.Coord, RTT: tb.Net.SampleRTT(v, target),
			})
		}
		rec.Location = geo.Locate(ev)
		if rec.Location.Located() {
			d.Countries[rec.Location.Country]++
			d.Cities[rec.Location.City]++
		}
		d.Servers = append(d.Servers, rec)
	}
	for o := range ownerSet {
		d.Owners = append(d.Owners, o)
	}
	sort.Strings(d.Owners)
	return d
}

// makeVantages instantiates PlanetLab-style vantage hosts at every
// landmark city (idempotent per network).
func makeVantages(n *netem.Network) []*netem.Host {
	var out []*netem.Host
	for _, a := range geo.Airports() {
		name := "vantage-" + strings.ToLower(a.Code) + ".planetlab.sim"
		if h, ok := n.HostByName(name); ok {
			out = append(out, h)
			continue
		}
		out = append(out, n.AddHost(&netem.Host{
			Name:  name,
			Addr:  "198.18." + vantageOctets(len(out)),
			Coord: a.Coord,
		}))
	}
	return out
}

func vantageOctets(i int) string {
	return itoa(i>>8) + "." + itoa(i&0xff)
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

// EdgeCount returns how many distinct front-end entry points the
// discovery found — the Fig. 2 headline ("more than 100 different
// entry points have been located" for Google Drive).
func (d Discovery) EdgeCount() int { return len(d.Servers) }

// LocatedFraction is the share of servers the hybrid geolocation could
// place.
func (d Discovery) LocatedFraction() float64 {
	if len(d.Servers) == 0 {
		return 0
	}
	located := 0
	for _, s := range d.Servers {
		if s.Location.Located() {
			located++
		}
	}
	return float64(located) / float64(len(d.Servers))
}
