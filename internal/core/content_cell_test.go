package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/client"
	"repro/internal/workload"
)

// TestLegacyVsPCGStructuralEquivalence runs randomized campaign cells
// — random batch count, size and content kind — for every profile and
// pins the structure each repetition must have (the name dates from
// when it also ran every cell on the math/rand reference engine):
//
//   - every metric is populated: connections, traffic volumes,
//     start-up and completion times;
//   - the overhead is the total traffic over the batch's content size;
//   - re-running a cell reproduces it bit for bit.
func TestLegacyVsPCGStructuralEquivalence(t *testing.T) {
	meta := rand.New(rand.NewSource(17))
	kinds := []workload.Kind{workload.Binary, workload.Text, workload.FakeJPEG}
	for _, p := range client.Profiles() {
		for trial := 0; trial < 3; trial++ {
			batch := workload.Batch{
				Count: 1 + meta.Intn(20),
				Size:  int64(5_000 + meta.Intn(400_000)),
				Kind:  kinds[meta.Intn(len(kinds))],
			}
			seed := meta.Int63n(1 << 30)
			run := func() Metrics {
				return RunSync(p, batch, seed, DefaultJitter)
			}
			m := run()

			if m.Connections <= 0 || m.TotalTraffic <= 0 || m.StorageUp <= 0 ||
				m.Startup <= 0 || m.Completion <= 0 {
				t.Errorf("%s %s seed=%d: metrics not populated: %+v", p.Service, batch, seed, m)
			}
			want := float64(m.TotalTraffic) / float64(batch.Total())
			if math.Abs(m.Overhead-want) > 1e-9*want {
				t.Errorf("%s %s seed=%d: overhead %v, want TotalTraffic/content %v",
					p.Service, batch, seed, m.Overhead, want)
			}
			if again := run(); again != m {
				t.Errorf("%s %s seed=%d: cell not deterministic:\n %+v\n %+v", p.Service, batch, seed, m, again)
			}
		}
	}
}

// TestLegacyEngineRoundTripsDescriptors pins a cell through the
// descriptor pipeline (the name dates from the math/rand reference
// engine): a testbed's folder holds descriptors that are planned
// lazily, and re-running the cell reproduces it bit for bit, while a
// different seed must move the metrics — otherwise the round trip
// would not be exercising the seeded byte stream at all.
func TestLegacyEngineRoundTripsDescriptors(t *testing.T) {
	batch := workload.Batch{Count: 4, Size: 120_000, Kind: workload.Text}
	run := func(seed int64) Metrics {
		return RunSync(client.Dropbox(), batch, seed, DefaultJitter)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("descriptor round trip not deterministic:\n %+v\n %+v", a, b)
	}
	if run(8) == a {
		t.Fatal("seeds 7 and 8 produced identical metrics; content is not seeded")
	}
}
