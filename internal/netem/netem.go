// Package netem models the synthetic Internet the benchmark runs on:
// named hosts with geographic positions and IPv4 addresses, a
// propagation-delay model between them, per-host bandwidth caps, and a
// traceroute generator that produces the router-name hints the
// geolocation methodology consumes.
//
// The paper's testbed sits on a 1 Gb/s Ethernet at the University of
// Twente "in which the network is not a bottleneck"; completion times
// are instead governed by RTT to each provider's data centers and by
// per-connection server throughput. The emulator therefore needs only
// (i) a faithful RTT matrix derived from real geography and (ii)
// server-side rate caps — both are explicit, documented parameters.
package netem

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Host is one endpoint of the synthetic Internet: the test computer, a
// control/storage front-end, an edge node, a DNS resolver or a vantage
// point.
type Host struct {
	Name  string    // DNS-style name, unique within a Network
	Addr  string    // IPv4 literal, unique within a Network
	Coord geo.Coord // physical position

	// RateBps caps the per-connection application throughput this
	// host sustains (bits per second). Zero means unlimited; the
	// effective path rate is the minimum of both endpoints' caps.
	RateBps int64

	// ProcDelay is added to every request handled by this host,
	// modelling server-side processing (metadata commits, storage
	// back-end writes).
	ProcDelay time.Duration

	// slot is 1 + the host's position in the topology it belongs to;
	// 0 for a run's own hosts.
	slot int
}

// inflation stretches great-circle distances into routed-path
// distances (see internal/geo).
const inflation = 1.7

// Topology is the static half of the synthetic Internet: the server
// hosts of one deployment, kept in insertion order, and — once frozen
// — the base RTT from one vantage to every one of them. It draws no
// random numbers, so a campaign builds it once per cell and shares it
// read-only across every repetition and worker; each repetition runs
// on its own Network over it.
type Topology struct {
	hosts  []*Host
	byAddr map[string]*Host
	byName map[string]*Host

	frozen bool
	// row[i] is the base RTT from vantage to hosts[i].
	vantage geo.Coord
	row     []time.Duration
}

// NewTopology returns an empty, open topology.
func NewTopology() *Topology {
	return &Topology{byAddr: make(map[string]*Host), byName: make(map[string]*Host)}
}

// AddHost registers a host. It panics on duplicate name or address,
// and once the topology is frozen — topology construction errors are
// programming errors. A host belongs to one topology.
func (t *Topology) AddHost(h *Host) *Host {
	if t.frozen {
		panic(fmt.Sprintf("netem: host %q added to a frozen topology", h.Name))
	}
	checkNew(h, t.byName, t.byAddr)
	h.slot = len(t.hosts) + 1
	t.hosts = append(t.hosts, h)
	t.byName[h.Name] = h
	t.byAddr[h.Addr] = h
	return h
}

// Freeze closes the topology to new hosts and precomputes the base RTT
// from vantage to every host, so a run's RTT samples from a host at
// vantage skip the great-circle computation. After Freeze the topology
// is read-only and safe to share between concurrent runs.
func (t *Topology) Freeze(vantage geo.Coord) {
	if t.frozen {
		panic("netem: topology frozen twice")
	}
	t.frozen = true
	t.vantage = vantage
	t.row = make([]time.Duration, len(t.hosts))
	for i, h := range t.hosts {
		t.row[i] = geo.InflatedRTT(vantage, h.Coord, inflation)
	}
}

// NewNetwork starts a run on the topology with the given clock and
// RNG.
func (t *Topology) NewNetwork(clock *sim.Clock, rng *sim.RNG) *Network {
	return &Network{Clock: clock, rng: rng, topo: t}
}

// Network is one run on a Topology: the clock, the RNG, the path
// impairments and the run's own hosts (the test computer, measurement
// vantages). It is not safe for concurrent use.
type Network struct {
	Clock *sim.Clock
	rng   *sim.RNG
	topo  *Topology

	// The run's own hosts; nil until the first is added.
	byAddr map[string]*Host
	byName map[string]*Host

	// JitterFraction adds uniform noise of ±(fraction/2)·RTT to each
	// RTT sample, modelling queueing variation. Zero disables jitter.
	JitterFraction float64

	// LossRate is the per-segment loss probability on every path
	// (0 disables loss). The transport reacts with Reno-style
	// window halving and pays retransmissions; lossy-path scenarios
	// set a few percent here. The transport samples the next loss
	// position from the geometric run-length distribution this rate
	// implies (one RNG draw per loss event).
	LossRate float64
}

// New returns a network over a fresh, open topology of its own, using
// the given clock and RNG: every host added to it lands in that
// topology.
func New(clock *sim.Clock, rng *sim.RNG) *Network {
	return NewTopology().NewNetwork(clock, rng)
}

// CheckPath validates path impairments: a loss rate in [0, 1) and a
// finite, non-negative jitter fraction.
func CheckPath(loss, jitter float64) error {
	if !(loss >= 0 && loss < 1) {
		return fmt.Errorf("netem: loss rate %g is outside [0, 1)", loss)
	}
	if !(jitter >= 0 && jitter <= math.MaxFloat64) {
		return fmt.Errorf("netem: jitter fraction %g is not a finite value >= 0", jitter)
	}
	return nil
}

// AddHost registers a host. While the topology is open the host joins
// it; once it is frozen the host belongs to this run alone. It panics
// on a name or address already in use by either.
func (n *Network) AddHost(h *Host) *Host {
	if !n.topo.frozen {
		return n.topo.AddHost(h)
	}
	checkNew(h, n.topo.byName, n.topo.byAddr)
	if n.byName == nil {
		n.byName, n.byAddr = make(map[string]*Host), make(map[string]*Host)
	}
	checkNew(h, n.byName, n.byAddr)
	n.byName[h.Name] = h
	n.byAddr[h.Addr] = h
	return h
}

func checkNew(h *Host, byName, byAddr map[string]*Host) {
	if _, dup := byName[h.Name]; dup {
		panic(fmt.Sprintf("netem: duplicate host name %q", h.Name))
	}
	if _, dup := byAddr[h.Addr]; dup {
		panic(fmt.Sprintf("netem: duplicate host addr %q", h.Addr))
	}
}

// HostByAddr looks a host up by IPv4 address.
func (n *Network) HostByAddr(addr string) (*Host, bool) {
	if h, ok := n.topo.byAddr[addr]; ok {
		return h, true
	}
	h, ok := n.byAddr[addr]
	return h, ok
}

// HostByName looks a host up by name.
func (n *Network) HostByName(name string) (*Host, bool) {
	if h, ok := n.topo.byName[name]; ok {
		return h, true
	}
	h, ok := n.byName[name]
	return h, ok
}

// RNG exposes the network's deterministic random source; the
// transport simulator draws loss events from it.
func (n *Network) RNG() *sim.RNG { return n.rng }

// BaseRTT returns the deterministic (jitter-free) round-trip time
// between two hosts: from the frozen topology's row when a is at its
// vantage and b is one of its hosts, else from geography.
func (n *Network) BaseRTT(a, b *Host) time.Duration {
	t := n.topo
	if i := b.slot - 1; i >= 0 && i < len(t.row) && t.hosts[i] == b && a.Coord == t.vantage {
		return t.row[i]
	}
	return geo.InflatedRTT(a.Coord, b.Coord, inflation)
}

// SampleRTT returns one RTT sample between two hosts, with jitter.
func (n *Network) SampleRTT(a, b *Host) time.Duration {
	base := n.BaseRTT(a, b)
	if n.JitterFraction <= 0 {
		return base
	}
	spread := int64(float64(base) * n.JitterFraction)
	return time.Duration(n.rng.Jitter(int64(base), spread))
}

// PathRateBps returns the bottleneck application throughput between two
// hosts in bits per second: the minimum of both endpoints' caps, with
// zero meaning "no cap at this endpoint".
func (n *Network) PathRateBps(a, b *Host) int64 {
	ra, rb := a.RateBps, b.RateBps
	switch {
	case ra == 0:
		return rb
	case rb == 0:
		return ra
	case ra < rb:
		return ra
	default:
		return rb
	}
}

// Traceroute produces the forward router path from src to dst as seen
// by an active traceroute: a handful of hops whose reverse-DNS names
// may embed airport codes. The final transit hop always carries the
// code of the airport nearest the destination, reproducing the
// "closest well-known location of a router" signal the hybrid
// geolocator uses (Sect. 2.1).
func (n *Network) Traceroute(src, dst *Host) []geo.Hop {
	total := n.BaseRTT(src, dst)
	srcAir := geo.NearestAirport(src.Coord)
	dstAir := geo.NearestAirport(dst.Coord)
	mid := geo.Midpoint(src.Coord, dst.Coord)
	midAir := geo.NearestAirport(mid)

	hops := []geo.Hop{
		// Access router: opaque name, no location hint.
		{Name: fmt.Sprintf("gw1.isp-%s.sim", lower(srcAir.Code)), RTT: total / 10},
		{Name: fmt.Sprintf("ae-0-%s1.transit.sim", lower(srcAir.Code)), RTT: total / 5},
	}
	if midAir.Code != srcAir.Code && midAir.Code != dstAir.Code {
		hops = append(hops, geo.Hop{
			Name: fmt.Sprintf("xe-1-%s2.transit.sim", lower(midAir.Code)),
			RTT:  total / 2,
		})
	}
	hops = append(hops,
		geo.Hop{Name: fmt.Sprintf("be-3-%s4.transit.sim", lower(dstAir.Code)), RTT: total * 9 / 10},
		// The target itself often does not resolve.
		geo.Hop{Name: "", RTT: total},
	)
	return hops
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
