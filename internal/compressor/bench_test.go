package compressor

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkCountDeflate times the size-only DEFLATE behind every
// compressing upload, uncached, on incompressible and dictionary
// content at the size of a Fig. 6 small file, a Fig. 6 large file and
// a 1 MiB chunk. Once the pooled state is warm it allocates nothing.
func BenchmarkCountDeflate(b *testing.B) {
	sizes := []struct {
		name string
		n    int64
	}{{"10kB", 10_000}, {"100kB", 100_000}, {"1MiB", 1 << 20}}
	for _, k := range []workload.Kind{workload.Binary, workload.Text} {
		for _, s := range sizes {
			data := workload.Generate(sim.NewRNG(1), k, s.n)
			b.Run(k.String()+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(s.n)
				countDeflate(data)
				for b.Loop() {
					countDeflate(data)
				}
			})
		}
	}
}
