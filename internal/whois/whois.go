// Package whois maps IP addresses to their registered owners.
//
// The paper identifies who operates each front-end by querying whois
// for every discovered address (Sect. 2.1); that is how it learns,
// e.g., that Dropbox storage lives on Amazon addresses while Dropbox
// control runs on Dropbox's own network. The registry here is keyed by
// /16-style prefixes, matching the allocation scheme in
// internal/netem's AddrPool.
package whois

import "strings"

// Record describes one address block registration.
type Record struct {
	Prefix  string // first two dotted octets, e.g. "54.231"
	Owner   string // registered organisation, e.g. "Amazon.com, Inc."
	Netname string // registry network name, e.g. "AMAZON-AES"
}

// Registry is the simulated whois database.
type Registry struct {
	byPrefix map[string]Record
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPrefix: make(map[string]Record)}
}

// Register adds or replaces a block registration.
func (r *Registry) Register(rec Record) {
	r.byPrefix[rec.Prefix] = rec
}

// Lookup returns the registration covering ip, matching on the /16
// prefix. ok is false for unregistered space.
func (r *Registry) Lookup(ip string) (Record, bool) {
	parts := strings.Split(ip, ".")
	if len(parts) != 4 {
		return Record{}, false
	}
	rec, ok := r.byPrefix[parts[0]+"."+parts[1]]
	return rec, ok
}
