package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/workload"
)

// fuzzFleetConfig decodes a fuzz input into a small fleet day: -400 to
// 400 users and one to three classes with catalogs of 0 to 64 files,
// files of at most 8 KB and chunks of 512 B to 8.5 KB, so files span
// several chunks. A few byte values break one field of a class (a nil
// arrival, inverted bounds, a zero size, a shared fraction above 1),
// the class fractions or the bucket (1 ns, too many buckets for a
// day), so some inputs fail Validate. A missing byte reads as zero.
func fuzzFleetConfig(in []byte) FleetConfig {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	word := func() int { return int(next()) | int(next())<<8 }
	cfg := FleetConfig{Users: int(int16(word())) % 401, Seed: int64(word())}
	switch b := next(); {
	case b == 0xFF:
		cfg.Bucket = time.Nanosecond
	case b%3 == 1:
		cfg.Bucket = time.Hour
	case b%3 == 2:
		cfg.Bucket = 7 * time.Minute
	}
	flags := next()
	catalogs := []int{0, 1, 2, 7, 64}
	classes := make([]FleetClass, 1+int(next()%3))
	var weights float64
	for i := range classes {
		c := &classes[i]
		c.Name = fmt.Sprintf("c%d", i)
		b := next()
		perDay := float64(1 + (b/3)%4)
		switch {
		case b >= 250:
		case b%3 == 0:
			c.Arrival = workload.Poisson{PerDay: perDay}
		case b%3 == 1:
			c.Arrival = workload.Gamma{PerDay: perDay, CV: 2}
		default:
			c.Arrival = workload.Diurnal{PerDay: perDay, Weights: workload.OfficeHours()}
		}
		c.MinFiles = int(next() % 4)
		if b := next(); b == 0xFF {
			c.MaxFiles = c.MinFiles - 1
		} else {
			c.MaxFiles = c.MinFiles + int(b%3)
		}
		if b := next(); b != 0xFF {
			c.MinFileBytes = 1 + int64(b)*16
		}
		if b := next(); b == 0xFF {
			c.MaxFileBytes = c.MinFileBytes - 1
		} else {
			c.MaxFileBytes = c.MinFileBytes + int64(b)*16
		}
		c.SharedFraction = float64(next()) / 250
		c.CatalogSize = catalogs[next()%5]
		if b := next(); b != 0 {
			c.ChunkBytes = 480 + int64(b)*32
		}
		c.Fraction = float64(1 + next())
		weights += c.Fraction
	}
	for i := range classes {
		classes[i].Fraction /= weights
	}
	switch flags {
	case 0xFF:
		classes[0].Fraction /= 2
	case 0xFE:
		classes[0].Fraction = -classes[0].Fraction
	}
	cfg.Classes = classes
	return cfg
}

// FuzzFleetDay runs small fleet days from fuzzFleetConfig. A config
// that fails Validate must make RunFleet panic with Validate's message.
// A valid day must terminate and conserve its bytes (wire = content -
// dedup + manifest, stored = content - dedup, buckets summing to the
// totals, one store put per unique chunk on a fresh store), and must be
// bit-identical at workers {1, 3} x store shards {1, 8}. The committed
// corpus holds valid one-, two- and three-class days, an empty
// population and invalid configs.
func FuzzFleetDay(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := fuzzFleetConfig(in)
		if err := cfg.Validate(); err != nil {
			defer func() {
				if got := recover(); got != err.Error() {
					t.Fatalf("RunFleet on an invalid config panicked with %v, want %q", got, err)
				}
			}()
			RunFleet(cfg, 1)
			return
		}

		run := func(workers, shards int) FleetResult {
			c := cfg
			c.Store = dedup.NewStoreSharded(shards)
			r := RunFleet(c, workers)
			if puts := c.Store.Puts(); puts != int64(r.UniqueChunks) {
				t.Fatalf("workers=%d shards=%d: %d puts for %d unique chunks",
					workers, shards, puts, r.UniqueChunks)
			}
			return r
		}
		base := run(1, 1)
		if base.WireBytes != base.ContentBytes-base.DedupBytes+base.ManifestBytes {
			t.Fatalf("wire conservation: %v", base)
		}
		if base.StoredBytes != base.ContentBytes-base.DedupBytes {
			t.Fatalf("store conservation: stored %d, content %d, dedup %d",
				base.StoredBytes, base.ContentBytes, base.DedupBytes)
		}
		var sessions, wire int64
		for _, b := range base.Buckets {
			sessions += b.Sessions
			wire += b.WireBytes
		}
		if sessions != base.Sessions || wire != base.WireBytes {
			t.Fatalf("buckets sum to %d sessions and %d wire bytes, totals %d and %d",
				sessions, wire, base.Sessions, base.WireBytes)
		}
		for _, c := range []struct{ workers, shards int }{{1, 8}, {3, 1}, {3, 8}} {
			if got := run(c.workers, c.shards); !reflect.DeepEqual(base, got) {
				t.Fatalf("workers=%d shards=%d diverged:\n  base: %v\n  got:  %v",
					c.workers, c.shards, base, got)
			}
		}
	})
}
