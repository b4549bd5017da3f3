// Package dnssim models the DNS machinery the paper's architecture
// discovery depends on (Sect. 2.1).
//
// Cloud services balance load through DNS: the set of A records a
// client receives depends on which resolver asked. Enumerating a
// service's front-end fleet therefore requires querying from many
// vantage points — the paper uses more than 2,000 open resolvers in
// over 100 countries and 500 ISPs. This package provides:
//
//   - per-name resolution policies (static pools, random subsets, and
//     nearest-edge steering for the Google-like topology),
//   - a synthetic open-resolver population with the paper's country
//     and ISP spread,
//   - PTR (reverse DNS) records, which may embed airport codes that
//     the geolocator consumes.
package dnssim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Resolver is one open DNS resolver: a location the service's
// authoritative DNS sees queries from.
type Resolver struct {
	Name    string
	Coord   geo.Coord
	Country string
	ISP     string
}

// Policy answers A-record queries for one DNS name.
type Policy interface {
	// AppendAnswer appends to dst the IP addresses handed to a
	// client whose query originates at `from`, and returns the
	// extended slice. rng drives any randomized rotation. A caller
	// that resolves often passes a reused scratch slice.
	AppendAnswer(dst []string, from geo.Coord, rng *sim.RNG) []string
}

// StaticPool returns up to K addresses from a fixed pool, rotated
// randomly — classic round-robin DNS as used by the centralized
// services (Dropbox, SkyDrive, Wuala, Cloud Drive).
type StaticPool struct {
	IPs []string
	K   int // answers per query; 0 means all
}

// AppendAnswer implements Policy.
func (p *StaticPool) AppendAnswer(dst []string, _ geo.Coord, rng *sim.RNG) []string {
	k := p.K
	if k <= 0 || k >= len(p.IPs) {
		return append(dst, p.IPs...)
	}
	// Permute into a stack buffer when the pool fits (every built-in
	// deployment's does).
	var buf [64]int
	perm := buf[:]
	if len(p.IPs) > len(buf) {
		perm = make([]int, len(p.IPs))
	}
	idx := rng.PermInto(perm[:len(p.IPs)])[:k]
	sort.Ints(idx)
	dst = grow(dst, k)
	for _, i := range idx {
		dst = append(dst, p.IPs[i])
	}
	return dst
}

// grow returns dst with room for n more answers, allocating at most
// once.
func grow(dst []string, n int) []string {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]string, 0, len(dst)+n), dst...)
}

// NearestEdge steers each query to the edge nodes closest to the
// querying resolver — the Google Drive topology, where client TCP
// terminates at the nearest edge of a private backbone (Sect. 3.2).
type NearestEdge struct {
	Edges []*netem.Host
	K     int // how many nearby edges to return (default 1)
}

// AppendAnswer implements Policy.
func (p *NearestEdge) AppendAnswer(dst []string, from geo.Coord, _ *sim.RNG) []string {
	k := p.K
	if k <= 0 {
		k = 1
	}
	if k > len(p.Edges) {
		k = len(p.Edges)
	}
	type cand struct {
		ip string
		d  float64
	}
	cands := make([]cand, len(p.Edges))
	for i, e := range p.Edges {
		cands[i] = cand{e.Addr, geo.DistanceKm(from, e.Coord)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].ip < cands[j].ip
	})
	dst = grow(dst, k)
	for _, c := range cands[:k] {
		dst = append(dst, c.ip)
	}
	return dst
}

// Zone is the static half of the simulated global DNS: authoritative
// policies per name plus the PTR (reverse) zone. It draws no random
// numbers, so a campaign builds it once per cell; once frozen it is
// read-only and shared by every repetition's System.
type Zone struct {
	frozen   bool
	policies map[string]Policy
	ptr      map[string]string // ip -> reverse name
}

// NewZone returns an empty, open zone.
func NewZone() *Zone {
	return &Zone{policies: make(map[string]Policy), ptr: make(map[string]string)}
}

// Freeze closes the zone to changes, making it safe to share between
// concurrent Systems.
func (z *Zone) Freeze() { z.frozen = true }

// SetPolicy installs the resolution policy for a DNS name.
func (z *Zone) SetPolicy(name string, p Policy) {
	z.mustBeOpen()
	z.policies[strings.ToLower(name)] = p
}

// SetPTR installs the reverse-DNS name for an address. Empty name
// models hosts without PTR records.
func (z *Zone) SetPTR(ip, name string) {
	z.mustBeOpen()
	z.ptr[ip] = name
}

func (z *Zone) mustBeOpen() {
	if z.frozen {
		panic("dnssim: zone is frozen")
	}
}

// NewSystem starts a run on the zone: resolution through the zone's
// policies, rotated by rng.
func (z *Zone) NewSystem(rng *sim.RNG) *System { return &System{rng: rng, Zone: z} }

// System is one run's view of the simulated global DNS: a Zone plus
// the RNG its policies rotate answers with.
type System struct {
	rng *sim.RNG
	*Zone
}

// NewSystem returns a DNS system over a fresh, open zone of its own.
func NewSystem(rng *sim.RNG) *System { return NewZone().NewSystem(rng) }

// Names returns every name with a policy, sorted.
func (z *Zone) Names() []string {
	out := make([]string, 0, len(z.policies))
	for n := range z.policies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve answers an A query for name as seen from a resolver at the
// given location. Unknown names resolve to nothing (NXDOMAIN).
func (s *System) Resolve(name string, from geo.Coord) []string {
	return s.AppendResolve(nil, name, from)
}

// AppendResolve is Resolve appending the answer to dst: a caller that
// resolves often passes a reused scratch slice. Unknown names append
// nothing.
func (s *System) AppendResolve(dst []string, name string, from geo.Coord) []string {
	// Names are stored lower-case; try the name as given first, so the
	// common already-lower-case query skips the case fold.
	p, ok := s.policies[name]
	if !ok {
		if p, ok = s.policies[strings.ToLower(name)]; !ok {
			return dst
		}
	}
	return p.AppendAnswer(dst, from, s.rng)
}

// ReverseLookup returns the PTR name for an address, or "" if none.
func (z *Zone) ReverseLookup(ip string) string { return z.ptr[ip] }

// FanOut resolves name from every resolver in the set and returns the
// union of addresses observed, sorted — the paper's front-end
// enumeration step.
func (s *System) FanOut(name string, resolvers []Resolver) []string {
	seen := make(map[string]bool)
	for _, r := range resolvers {
		for _, ip := range s.Resolve(name, r.Coord) {
			seen[ip] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ip := range seen {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out
}

// GenerateResolvers builds a synthetic open-resolver population with at
// least the paper's spread: the requested count distributed over every
// country in the geo capital table (112 countries), across `ispsPer`
// distinct ISPs per country. Resolver positions jitter up to ~2 degrees
// around the anchor city.
func GenerateResolvers(rng *sim.RNG, count, ispsPer int) []Resolver {
	places := geo.Capitals()
	if ispsPer < 1 {
		ispsPer = 1
	}
	out := make([]Resolver, 0, count)
	for i := 0; i < count; i++ {
		p := places[i%len(places)]
		isp := (i / len(places)) % ispsPer
		jlat := (rng.Float64() - 0.5) * 4
		jlon := (rng.Float64() - 0.5) * 4
		out = append(out, Resolver{
			Name:    fmt.Sprintf("resolver%d.isp%d.%s.sim", i, isp, strings.ToLower(p.Country)),
			Coord:   geo.Coord{Lat: clampLat(p.Coord.Lat + jlat), Lon: wrapLon(p.Coord.Lon + jlon)},
			Country: p.Country,
			ISP:     fmt.Sprintf("isp%d-%s", isp, strings.ToLower(p.Country)),
		})
	}
	return out
}

func clampLat(l float64) float64 {
	if l > 89 {
		return 89
	}
	if l < -89 {
		return -89
	}
	return l
}

func wrapLon(l float64) float64 {
	for l > 180 {
		l -= 360
	}
	for l < -180 {
		l += 360
	}
	return l
}
