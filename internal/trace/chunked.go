package trace

import "math/bits"

// chunked is an append-only table stored in chunks of doubling size
// (16, 32, 64, ... entries). Growing it never moves what is already
// stored, so a table of n entries allocates at most 2n entries once,
// where a doubling slice allocates about as much again in the copies
// it leaves behind. The Streamer keeps its per-flow state in these: a
// repetition opens its flows one at a time, up to several hundred.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

const chunk0Bits = 4 // the first chunk holds 1<<chunk0Bits entries

// len returns how many entries the table holds.
func (c *chunked[T]) len() int { return c.n }

// at returns the i-th entry, 0 <= i < len().
func (c *chunked[T]) at(i int) *T {
	// Chunk k holds entries [16(2^k-1), 16(2^(k+1)-1)), so i+16 has
	// bit length k+5 and its offset in the chunk is i+16-16*2^k.
	j := uint(i) + 1<<chunk0Bits
	k := bits.Len(j) - chunk0Bits - 1
	return &c.chunks[k][j-1<<(chunk0Bits+k)]
}

// grow extends the table to n zero entries if it is shorter.
func (c *chunked[T]) grow(n int) {
	if n <= c.n {
		return
	}
	for (1<<len(c.chunks)-1)<<chunk0Bits < n {
		c.chunks = append(c.chunks, make([]T, 1<<(chunk0Bits+len(c.chunks))))
	}
	c.n = n
}

// slice copies the table into one contiguous slice (nil when empty).
func (c *chunked[T]) slice() []T {
	if c.n == 0 {
		return nil
	}
	out := make([]T, 0, c.n)
	for _, ch := range c.chunks {
		out = append(out, ch[:min(len(ch), c.n-len(out))]...)
	}
	return out
}
