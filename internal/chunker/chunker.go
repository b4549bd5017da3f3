// Package chunker splits file content into chunks, the transfer unit
// of every sync client in the study (Sect. 4.1).
//
// Two strategies are implemented:
//
//   - Fixed-size chunking, as used by Dropbox (4 MB) and Google Drive
//     (8 MB): chunk boundaries sit at fixed offsets, so inserting bytes
//     shifts all subsequent chunk contents.
//   - Content-defined chunking with a rolling hash (the paper observes
//     SkyDrive and Wuala using variable chunk sizes): boundaries follow
//     content features, so local edits disturb only nearby chunks.
package chunker

import (
	"fmt"
	"slices"
)

// Chunk is one piece of a file.
type Chunk struct {
	Offset int64
	Data   []byte
}

// Len returns the chunk length in bytes.
func (c Chunk) Len() int64 { return int64(len(c.Data)) }

// Fixed appends to dst the lengths of the fixed-size chunks that
// partition size bytes of content, in order, and returns the extended
// slice: every chunk is chunk bytes long except a shorter last one
// when chunk does not divide size, and zero bytes make no chunks. The
// boundaries depend on the size alone, so content is chunked without
// being read. chunk must be positive.
func Fixed(dst []int64, size, chunk int64) []int64 {
	if chunk <= 0 {
		panic(fmt.Sprintf("chunker: invalid fixed size %d", chunk))
	}
	if size > 0 {
		dst = slices.Grow(dst, int((size-1)/chunk+1))
	}
	for off := int64(0); off < size; off += chunk {
		dst = append(dst, min(chunk, size-off))
	}
	return dst
}

// ContentDefined is a rolling-hash (buzhash) chunker. A boundary is
// declared whenever the rolling hash over a 48-byte window hits a
// configurable pattern, subject to minimum and maximum chunk sizes.
type ContentDefined struct {
	Min, Avg, Max int64
	mask          uint32
}

// MinAverage is the smallest average chunk size NewContentDefined
// accepts.
const MinAverage = 64

// NewContentDefined returns a content-defined chunker with the given
// average chunk size (rounded down to a power of two for the boundary
// mask). Min defaults to avg/4 and max to avg*4.
func NewContentDefined(avg int64) *ContentDefined {
	if avg < MinAverage {
		panic(fmt.Sprintf("chunker: average %d too small", avg))
	}
	// Mask with log2(avg) low bits set: boundary probability 1/avg.
	bits := 0
	for v := avg; v > 1; v >>= 1 {
		bits++
	}
	return &ContentDefined{
		Min:  avg / 4,
		Avg:  avg,
		Max:  avg * 4,
		mask: (1 << bits) - 1,
	}
}

const windowSize = 48

// buzTable is a fixed pseudo-random byte-to-uint32 substitution for
// the buzhash. Generated from a simple LCG so the package has no
// runtime dependencies; any fixed random-looking table works.
var buzTable = func() [256]uint32 {
	var t [256]uint32
	state := uint32(2463534242)
	for i := range t {
		// xorshift32
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		t[i] = state
	}
	return t
}()

func rotl(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }

// Split partitions data into consecutive chunks covering it exactly;
// chunk Data aliases data. A boundary can only be declared once a
// chunk has reached Min bytes, and the rolling hash depends only on
// the trailing windowSize bytes, so the scan skips straight past the
// Min region of every chunk: it warms the hash over the (at most
// windowSize-byte) tail of that region and evaluates boundaries from
// the first eligible position on. The produced chunks are identical
// to the byte-at-a-time formulation.
func (c *ContentDefined) Split(data []byte) []Chunk {
	n := int64(len(data))
	if n == 0 {
		return nil
	}
	var out []Chunk
	for start := int64(0); start < n; {
		if start+c.Min >= n {
			// The remainder cannot reach Min before EOF (or reaches
			// it exactly at the last byte); either way it is the
			// final chunk.
			out = append(out, Chunk{Offset: start, Data: data[start:]})
			break
		}
		cut := c.boundary(data, start, n)
		out = append(out, Chunk{Offset: start, Data: data[start:cut]})
		start = cut
	}
	return out
}

// boundary returns the exclusive end of the chunk starting at start.
// The caller guarantees start+Min < n, so at least one in-bounds
// candidate position exists.
func (c *ContentDefined) boundary(data []byte, start, n int64) int64 {
	limit := start + c.Max // cut here regardless of hash (size == Max)
	if limit > n {
		limit = n
	}
	// First position where a boundary may be declared (chunk size
	// reaches Min), and the hash state just before processing it:
	// the rolling hash over data[max(start, i0-windowSize) : i0].
	i0 := start + c.Min - 1
	w0 := i0 - windowSize
	if w0 < start {
		w0 = start
	}
	var h uint32
	for _, b := range data[w0:i0] {
		h = rotl(h, 1) ^ buzTable[b]
	}
	// Below start+windowSize the window is still growing: bytes are
	// added but none drop out yet. The window-subtraction branch is
	// hoisted out of the loops by splitting the scan at the
	// saturation point.
	sat := start + windowSize
	if sat > limit {
		sat = limit
	}
	i := i0
	for ; i < sat; i++ {
		h = rotl(h, 1) ^ buzTable[data[i]]
		if h&c.mask == c.mask {
			return i + 1
		}
	}
	for ; i < limit; i++ {
		h = rotl(h, 1) ^ buzTable[data[i]]
		h ^= rotl(buzTable[data[i-windowSize]], windowSize%32)
		if h&c.mask == c.mask {
			return i + 1
		}
	}
	return limit
}
