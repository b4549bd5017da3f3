package netem

import "fmt"

// AddrPool hands out IPv4 addresses from a /16 prefix, one block per
// provider, so that whois ownership lookups (internal/whois) can map
// addresses back to organisations exactly as the paper does.
type AddrPool struct {
	prefix string // e.g. "54.231"
	next   int
}

// NewAddrPool returns a pool allocating from prefix, which must be the
// first two dotted octets, e.g. "54.231".
func NewAddrPool(prefix string) *AddrPool {
	return &AddrPool{prefix: prefix}
}

// Next allocates the next address in the block. It panics when the /16
// is exhausted (65k hosts — far beyond any experiment here).
func (p *AddrPool) Next() string {
	if p.next >= 1<<16 {
		panic("netem: address pool exhausted: " + p.prefix)
	}
	a := p.next
	p.next++
	return fmt.Sprintf("%s.%d.%d", p.prefix, a>>8, a&0xff)
}
