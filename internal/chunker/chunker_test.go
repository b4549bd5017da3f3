package chunker

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

func reassemble(chunks []Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

func TestFixedSplitExact(t *testing.T) {
	const chunk = 4
	for _, tc := range []struct {
		size int64
		want []int64
	}{
		{0, nil},
		{1, []int64{1}},
		{chunk - 1, []int64{3}},
		{chunk, []int64{4}},
		{chunk + 1, []int64{4, 1}},
		{10, []int64{4, 4, 2}},
		{3*chunk - 1, []int64{4, 4, 3}},
		{3 * chunk, []int64{4, 4, 4}},
		{3*chunk + 1, []int64{4, 4, 4, 1}},
	} {
		if got := Fixed(nil, tc.size, chunk); !slices.Equal(got, tc.want) {
			t.Errorf("Fixed(nil, %d, %d) = %v, want %v", tc.size, chunk, got, tc.want)
		}
	}
	// dst is extended, not overwritten.
	if got := Fixed([]int64{7}, 5, chunk); !slices.Equal(got, []int64{7, 4, 1}) {
		t.Errorf("Fixed onto [7] = %v, want [7 4 1]", got)
	}
}

func TestFixedEmptyAndSingle(t *testing.T) {
	if got := Fixed(nil, 0, 1<<20); got != nil {
		t.Fatal("empty input should produce no chunks")
	}
	if got := Fixed(nil, 1, 1<<20); !slices.Equal(got, []int64{1}) {
		t.Fatalf("single byte: %v", got)
	}
}

func TestFixedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for size 0")
		}
	}()
	Fixed(nil, 10, 0)
}

func TestFixedPartitionProperty(t *testing.T) {
	f := func(sizeSeed uint16, n uint16) bool {
		size := int64(sizeSeed%4096) + 1
		lens := Fixed(nil, int64(n), size)
		// Exact coverage, in order: full chunks, then at most one
		// shorter, non-empty tail.
		var off int64
		for i, ln := range lens {
			if ln <= 0 || ln > size || (ln < size && i != len(lens)-1) {
				return false
			}
			off += ln
		}
		return off == int64(n) && len(lens) == int((int64(n)+size-1)/size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContentDefinedPartitionProperty(t *testing.T) {
	rng := sim.NewRNG(2)
	cd := NewContentDefined(1024)
	f := func(n uint16) bool {
		data := workload.Generate(rng, workload.Binary, int64(n))
		chunks := cd.Split(data)
		var off int64
		for _, c := range chunks {
			if c.Offset != off || c.Len() == 0 || c.Len() > cd.Max {
				return false
			}
			// All but the final chunk respect the minimum.
			off += c.Len()
		}
		return off == int64(len(data)) && bytes.Equal(reassemble(chunks), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContentDefinedAverageSize(t *testing.T) {
	rng := sim.NewRNG(3)
	cd := NewContentDefined(4096)
	data := workload.Generate(rng, workload.Binary, 1<<20)
	chunks := cd.Split(data)
	avg := float64(len(data)) / float64(len(chunks))
	if avg < 1024 || avg > 16384 {
		t.Fatalf("average chunk = %.0f bytes, want around 4096", avg)
	}
	for i, c := range chunks {
		if i < len(chunks)-1 && c.Len() < cd.Min {
			t.Fatalf("chunk %d below min: %d", i, c.Len())
		}
	}
}

func TestContentDefinedDeterminism(t *testing.T) {
	rng := sim.NewRNG(4)
	data := workload.Generate(rng, workload.Binary, 100_000)
	cd := NewContentDefined(2048)
	a, b := cd.Split(data), cd.Split(data)
	if len(a) != len(b) {
		t.Fatal("nondeterministic chunk count")
	}
	for i := range a {
		if a[i].Offset != b[i].Offset {
			t.Fatal("nondeterministic boundaries")
		}
	}
}

// The key property that distinguishes content-defined from fixed
// chunking: a local edit disturbs only a bounded neighbourhood of
// chunks, while with fixed chunking an insertion changes every chunk
// after the edit point.
func TestContentDefinedLocality(t *testing.T) {
	rng := sim.NewRNG(5)
	data := workload.Generate(rng, workload.Binary, 512<<10)
	cd := NewContentDefined(4096)
	before := cd.Split(data)

	// Insert 100 bytes near the middle.
	edit := make([]byte, 0, len(data)+100)
	mid := len(data) / 2
	edit = append(edit, data[:mid]...)
	edit = append(edit, workload.Generate(rng, workload.Binary, 100)...)
	edit = append(edit, data[mid:]...)
	after := cd.Split(edit)

	hashes := func(chunks []Chunk) map[string]int {
		m := make(map[string]int)
		for _, c := range chunks {
			m[string(c.Data)]++
		}
		return m
	}
	hb, ha := hashes(before), hashes(after)
	shared := 0
	for k := range ha {
		if hb[k] > 0 {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(after)); frac < 0.8 {
		t.Fatalf("only %.0f%% of chunks survive a local edit, want >= 80%%", frac*100)
	}

	// Contrast: fixed chunking shares only the prefix.
	fixed := func(data []byte) []Chunk {
		var out []Chunk
		var off int64
		for _, ln := range Fixed(nil, int64(len(data)), 4096) {
			out = append(out, Chunk{Offset: off, Data: data[off : off+ln]})
			off += ln
		}
		return out
	}
	fb, fa := hashes(fixed(data)), hashes(fixed(edit))
	sharedFixed := 0
	for k := range fa {
		if fb[k] > 0 {
			sharedFixed++
		}
	}
	if sharedFixed >= shared {
		t.Fatalf("fixed chunking (%d shared) should lose more chunks than CDC (%d)", sharedFixed, shared)
	}
}
