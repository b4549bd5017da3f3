package trace

import (
	"slices"
	"testing"
)

// TestChunkedTable checks the chunked table against a plain slice
// across several chunk boundaries: every index addresses its own
// entry, growing keeps what is stored, and slice returns the entries
// in order.
func TestChunkedTable(t *testing.T) {
	var c chunked[int]
	var ref []int
	if c.slice() != nil || c.len() != 0 {
		t.Fatal("empty table not empty")
	}
	for n := 1; n <= 1000; n += 1 + n/7 {
		c.grow(n)
		for len(ref) < n {
			ref = append(ref, 0)
		}
		for i := range n {
			if *c.at(i) == 0 {
				*c.at(i) = 1 + i*3
				ref[i] = 1 + i*3
			}
		}
		if c.len() != n || !slices.Equal(c.slice(), ref) {
			t.Fatalf("after grow(%d): len %d, table differs from reference", n, c.len())
		}
	}
	c.grow(5) // never shrinks
	if c.len() != len(ref) {
		t.Fatalf("grow(5) shrank the table to %d", c.len())
	}
	if got, want := cap(c.chunks[0]), 1<<chunk0Bits; got != want {
		t.Fatalf("first chunk holds %d entries, want %d", got, want)
	}
	for k := 1; k < len(c.chunks); k++ {
		if len(c.chunks[k]) != 2*len(c.chunks[k-1]) {
			t.Fatalf("chunk %d holds %d entries, want double the %d before", k, len(c.chunks[k]), len(c.chunks[k-1]))
		}
	}
}
