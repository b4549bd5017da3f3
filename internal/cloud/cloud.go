// Package cloud builds the server side of each personal cloud storage
// service: data centers, control/storage/notification front-ends, edge
// networks, DNS policies, whois registrations and the content-addressed
// chunk store.
//
// Deployments follow the paper's findings (Sect. 3.2):
//
//   - Dropbox: own control servers in the San Jose area; storage on
//     Amazon in Northern Virginia; a plain-HTTP notification service.
//   - Cloud Drive: three AWS regions — Ireland and Northern Virginia
//     (storage+control), Oregon (storage only).
//   - SkyDrive: Microsoft data centers near Seattle (storage) and in
//     Southern Virginia (storage+control), plus Singapore (control).
//   - Wuala: four European locations (two near Nuremberg, Zurich,
//     Northern France), none owned by Wuala; no control/storage split.
//   - Google Drive: client TCP terminates at the nearest of >100
//     world-wide edge nodes, which relay to central data centers over
//     the private backbone.
package cloud

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/dedup"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/whois"
)

// Role classifies what a front-end host does. The paper identifies
// roles by DNS name and uses them to split control from storage
// traffic.
type Role int

const (
	// Control servers handle login, metadata and commit RPCs.
	Control Role = iota
	// Storage servers carry file content.
	Storage
	// Notification servers push change notifications (Dropbox's
	// plain-HTTP channel).
	Notification
	// Edge nodes terminate client TCP near the client (Google).
	Edge
)

// String names the role as used in DNS names and reports.
func (r Role) String() string {
	switch r {
	case Control:
		return "control"
	case Storage:
		return "storage"
	case Notification:
		return "notify"
	case Edge:
		return "edge"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Site is one data-center location in a service spec.
type Site struct {
	Name    string // short site label, e.g. "ashburn"
	City    string // for reports
	Coord   geo.Coord
	Roles   []Role
	Servers int // front-end hosts per role at this site (default 2)

	// Owner/Prefix feed the whois registry: the organisation that
	// registered this site's address block.
	Owner   string
	Netname string
	Prefix  string // /16 prefix for this site's pool

	// RateBps caps per-connection throughput at this site's hosts;
	// ProcDelay is the per-request processing cost (for edge sites
	// it models the backbone round trip to the real data center).
	RateBps   int64
	ProcDelay time.Duration

	// PTRHint controls reverse DNS: when true, host PTR names embed
	// the nearest airport code (locatable); when false the PTR is
	// opaque (the geolocator must fall back to RTT or traceroute).
	PTRHint bool
}

// Spec declares one service's server-side deployment.
type Spec struct {
	Service string // lower-case service key, e.g. "dropbox"
	Sites   []Site

	// EdgeNetwork, when true, resolves the service's client-facing
	// DNS name to the edge nearest the querying resolver instead of
	// a static pool (the Google Drive topology).
	EdgeNetwork bool

	// LoginServerCount is how many distinct control hosts the client
	// contacts during login (SkyDrive talks to 13 Microsoft Live
	// servers, everyone else to a couple).
	LoginServerCount int
}

// Deployment is the instantiated server side of one service.
type Deployment struct {
	Spec  Spec
	Hosts map[Role][]*netem.Host

	// Store is the service's content-addressed chunk store, shared
	// by every storage front-end (server-side dedup scope is the
	// whole service).
	Store *dedup.Store

	// names maps a role to the service DNS name front-ends of that
	// role answer for.
	names map[Role]string
}

// Fresh returns a per-run copy of the deployment: the same hosts and
// DNS names, shared read-only, over a new empty chunk store — the way
// the paper resets its test accounts between repetitions.
func (d *Deployment) Fresh() *Deployment {
	run := *d
	run.Store = dedup.NewStore()
	return &run
}

// DNSName returns the service DNS name for a role, e.g.
// "storage.dropbox.sim".
func (d *Deployment) DNSName(r Role) string { return d.names[r] }

// HostsByRole returns the front-ends with the given role.
func (d *Deployment) HostsByRole(r Role) []*netem.Host { return d.Hosts[r] }

// NearestEdge returns the edge host closest to a coordinate; it panics
// for services without an edge network.
func (d *Deployment) NearestEdge(c geo.Coord) *netem.Host {
	edges := d.Hosts[Edge]
	if len(edges) == 0 {
		panic("cloud: service has no edge network: " + d.Spec.Service)
	}
	best := edges[0]
	bestD := geo.DistanceKm(c, best.Coord)
	for _, e := range edges[1:] {
		if dd := geo.DistanceKm(c, e.Coord); dd < bestD {
			best, bestD = e, dd
		}
	}
	return best
}

// Build instantiates the deployment onto the synthetic Internet:
// it creates hosts, allocates addresses per site prefix, registers
// whois ownership, installs forward DNS policies and PTR records.
func Build(n *netem.Network, dns *dnssim.System, reg *whois.Registry, spec Spec) *Deployment {
	d := &Deployment{
		Spec:  spec,
		Hosts: make(map[Role][]*netem.Host),
		Store: dedup.NewStore(),
		names: make(map[Role]string),
	}
	pools := make(map[string]*netem.AddrPool)
	for _, site := range spec.Sites {
		if site.Prefix == "" {
			panic("cloud: site without address prefix: " + site.Name)
		}
		pool, ok := pools[site.Prefix]
		if !ok {
			pool = netem.NewAddrPool(site.Prefix)
			pools[site.Prefix] = pool
			reg.Register(whois.Record{Prefix: site.Prefix, Owner: site.Owner, Netname: site.Netname})
		}
		servers := site.Servers
		if servers <= 0 {
			servers = 2
		}
		// Every host of a site shares its coordinate, so the airport
		// its PTR names embed is looked up once per site.
		air := ""
		if site.PTRHint {
			air = strings.ToLower(geo.NearestAirport(site.Coord).Code)
		}
		for _, role := range site.Roles {
			for i := 0; i < servers; i++ {
				h := n.AddHost(&netem.Host{
					Name:      role.String() + strconv.Itoa(i) + "." + site.Name + "." + spec.Service + ".sim",
					Addr:      pool.Next(),
					Coord:     site.Coord,
					RateBps:   site.RateBps,
					ProcDelay: site.ProcDelay,
				})
				d.Hosts[role] = append(d.Hosts[role], h)
				dns.SetPTR(h.Addr, ptrName(site, air, role, i))
			}
		}
	}

	// Forward DNS: one name per role present in the deployment.
	for role, hosts := range d.Hosts {
		name := fmt.Sprintf("%s.%s.sim", role, spec.Service)
		d.names[role] = name
		if role == Edge && spec.EdgeNetwork {
			// Real resolvers hand out a few nearby edges per
			// query, so fan-out discovery can enumerate the
			// whole fleet (Fig. 2).
			dns.SetPolicy(name, &dnssim.NearestEdge{Edges: hosts, K: 3})
			continue
		}
		ips := make([]string, len(hosts))
		for i, h := range hosts {
			ips[i] = h.Addr
		}
		k := 0
		if len(ips) > 4 {
			k = 4 // answer a rotating subset, forcing fan-out discovery
		}
		dns.SetPolicy(name, &dnssim.StaticPool{IPs: ips, K: k})
	}
	return d
}

// ptrName builds the reverse-DNS name for a host: informative (with
// the site's lower-case airport code air, as many operators do) or
// opaque.
func ptrName(site Site, air string, role Role, i int) string {
	if site.PTRHint {
		return role.String() + "-" + air + strconv.Itoa(1+i/8) + "-" + strconv.Itoa(i) + ".net.example"
	}
	return role.String() + "-" + strconv.Itoa(i) + "." + site.Name + ".example"
}
