package chunker

import (
	"bytes"
	"math/rand"
	"testing"
)

// seedSplit is the pre-fast-path content-defined split: one rolling
// hash maintained byte by byte over the whole input, boundary check at
// every position, window-subtraction branch inside the loop. The
// fast-path Split must produce identical chunks.
func seedSplit(c *ContentDefined, data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	var out []Chunk
	start := int64(0)
	n := int64(len(data))
	var h uint32
	for i := int64(0); i < n; i++ {
		h = rotl(h, 1) ^ buzTable[data[i]]
		if w := i - windowSize; w >= start {
			h ^= rotl(buzTable[data[w]], windowSize%32)
		}
		size := i - start + 1
		atBoundary := size >= c.Min && (h&c.mask) == c.mask
		if atBoundary || size >= c.Max {
			out = append(out, Chunk{Offset: start, Data: data[start : i+1]})
			start = i + 1
			h = 0
		}
	}
	if start < n {
		out = append(out, Chunk{Offset: start, Data: data[start:]})
	}
	return out
}

func TestSplitMatchesSeedByteAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 63, 64, 100, 4096, 100_000, 1 << 20}
	for _, avg := range []int64{64, 256, 4096, 64 << 10, 1 << 20} {
		c := NewContentDefined(avg)
		for _, size := range sizes {
			data := make([]byte, size)
			rng.Read(data)
			// Plant low-entropy runs so boundaries cluster and the
			// Min/Max caps both trigger.
			for i := 0; i+1000 < len(data); i += 10_000 {
				copy(data[i:i+1000], bytes.Repeat([]byte{0xAB}, 1000))
			}
			got := c.Split(data)
			want := seedSplit(c, data)
			if len(got) != len(want) {
				t.Fatalf("avg=%d size=%d: %d chunks, want %d", avg, size, len(got), len(want))
			}
			var covered int64
			for i := range got {
				if got[i].Offset != want[i].Offset || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("avg=%d size=%d: chunk %d differs (offset %d vs %d, len %d vs %d)",
						avg, size, i, got[i].Offset, want[i].Offset, got[i].Len(), want[i].Len())
				}
				if got[i].Offset != covered {
					t.Fatalf("avg=%d size=%d: chunk %d not contiguous", avg, size, i)
				}
				covered += got[i].Len()
			}
			if covered != int64(size) {
				t.Fatalf("avg=%d size=%d: chunks cover %d bytes", avg, size, covered)
			}
		}
	}
}

func BenchmarkContentDefinedSplit(b *testing.B) {
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(data)
	for _, tc := range []struct {
		name string
		avg  int64
	}{{"avg1MB", 1 << 20}, {"avg4MB", 4 << 20}} {
		c := NewContentDefined(tc.avg)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				c.Split(data)
			}
		})
		b.Run(tc.name+"/seed", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				seedSplit(c, data)
			}
		})
	}
}

func BenchmarkFixedSplit(b *testing.B) {
	lens := make([]int64, 0, 2)
	for i := 0; i < b.N; i++ {
		lens = Fixed(lens[:0], 8<<20, 4<<20)
	}
}
