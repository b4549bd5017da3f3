package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/sim"
)

// Batch describes one upload set: Count files of Size bytes each, of
// the given Kind. The paper's headline workloads are 1x100kB, 1x1MB,
// 10x100kB and 100x10kB (Sect. 5); the bundling test uses four sets
// with identical total volume split into 1, 10, 100 and 1000 files
// (Sect. 4.2).
type Batch struct {
	Count int
	Size  int64
	Kind  Kind
}

// Total returns the batch's content volume.
func (b Batch) Total() int64 { return int64(b.Count) * b.Size }

// String formats the batch like the paper's axis labels ("100x10kB").
func (b Batch) String() string {
	return fmt.Sprintf("%dx%s", b.Count, SizeLabel(b.Size))
}

// SizeLabel renders a byte count the way the paper labels workloads
// (10kB, 100kB, 1MB).
func SizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n/(1<<20))
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dMB", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dkB", n/1000)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Validate reports whether the batch describes a set of files that can
// be created: at least one file, a non-negative size whose total over
// the batch fits in an int64 (Total), and a known Kind.
func (b Batch) Validate() error {
	switch {
	case b.Count < 1:
		return fmt.Errorf("workload: batch needs at least one file, has %d", b.Count)
	case b.Size < 0:
		return fmt.Errorf("workload: negative file size %d", b.Size)
	case b.Size > 0 && int64(b.Count) > math.MaxInt64/b.Size:
		return fmt.Errorf("workload: %d files of %d bytes overflow an int64 total", b.Count, b.Size)
	case !slices.Contains(Kinds, b.Kind):
		return fmt.Errorf("workload: unknown file kind %d", int(b.Kind))
	}
	return nil
}

// Materialize creates the batch's files in the folder at time `at`,
// naming them <prefix>/fileNNNN.<ext>. It returns the created paths.
// Despite the historical name, nothing is generated here: each file is
// a lazy content descriptor over its own forked stream — named by the
// fork's seed alone, equal to Describe(rng.Fork(i), ...) without
// building the child RNG — and bytes come into existence only if a
// consumer needs them.
func (b Batch) Materialize(f *Folder, rng *sim.RNG, at time.Time, prefix string) []string {
	paths := make([]string, 0, b.Count)
	ext := b.Kind.Ext()
	var name []byte
	for i := 0; i < b.Count; i++ {
		name = appendFileName(name[:0], prefix, i, ext)
		path := string(name)
		f.CreateLazy(at, path, describe(rng.ForkSeed(int64(i)), b.Kind, b.Size))
		paths = append(paths, path)
	}
	return paths
}

// appendFileName appends the i-th file's path, prefix/fileNNNN.ext
// with i zero-padded to four digits, to dst: fmt's "%s/file%04d%s"
// without its per-call allocations.
func appendFileName(dst []byte, prefix string, i int, ext string) []byte {
	dst = append(append(dst, prefix...), "/file"...)
	for p := 1000; p > 1 && i < p; p /= 10 {
		dst = append(dst, '0')
	}
	return append(strconv.AppendInt(dst, int64(i), 10), ext...)
}

// StandardBenchmarks returns the four workloads of Fig. 6 for the
// given file kind.
func StandardBenchmarks(kind Kind) []Batch {
	return []Batch{
		{Count: 1, Size: 100_000, Kind: kind},
		{Count: 1, Size: 1 << 20, Kind: kind},
		{Count: 10, Size: 100_000, Kind: kind},
		{Count: 100, Size: 10_000, Kind: kind},
	}
}

// BundlingSets returns the Sect. 4.2 upload sets: the same total
// volume split into 1, 10, 100 and 1000 files.
func BundlingSets(total int64, kind Kind) []Batch {
	return []Batch{
		{Count: 1, Size: total, Kind: kind},
		{Count: 10, Size: total / 10, Kind: kind},
		{Count: 100, Size: total / 100, Kind: kind},
		{Count: 1000, Size: total / 1000, Kind: kind},
	}
}
