// Command fleetbench simulates a fleet of users — up to a million —
// sharing one cloud backend for a service day and reports the
// service-side load curves: bytes per second and concurrent
// connections per bucket, plus the cross-user dedup ratio. With
// -populations it sweeps the same day over several fleet sizes (each
// against a fresh backend) to show how dedup scales with population,
// the service-scale form of the paper's Sect. 4.3 observation.
//
// Usage:
//
//	fleetbench [-users N] [-seed N] [-day D] [-bucket D] [-shards N]
//	           [-parallel N] [-populations N,N,...] [-out FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// Typical runs:
//
//	fleetbench -users 100000                      # one service day, JSON to stdout
//	fleetbench -users 1000000 -bucket 5m          # million-user day, coarser curve
//	fleetbench -populations 1000,10000,100000     # dedup ratio vs fleet size
//	fleetbench -users 50000 -cpuprofile cpu.pprof # profile the engine hot path
//
// The JSON report contains only simulated quantities, so two runs with
// the same flags are byte-identical whatever -parallel says — the CI
// fleet smoke (scripts/fleetsmoke.sh) pins exactly that by comparing
// -parallel 1 against -parallel 8 outputs, and likewise -shards 1
// against -shards 64. Wall-clock timing goes to stderr, where it
// cannot perturb the comparison.
//
// -cpuprofile and -memprofile write standard runtime/pprof profiles
// (inspect with go tool pprof); the heap profile is taken at exit
// after a GC, so it reflects retention, not transient churn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
)

// report is the deterministic part of a fleetbench run: the fleet
// day's outcome and, when requested, the population sweep. No
// wall-clock quantity may appear here.
type report struct {
	Users  int           `json:"users"`
	Seed   int64         `json:"seed"`
	Day    time.Duration `json:"day_ns"`
	Bucket time.Duration `json:"bucket_ns"`
	Shards int           `json:"shards"`

	Fleet       core.FleetResult            `json:"fleet"`
	Populations []core.FleetPopulationPoint `json:"populations,omitempty"`
}

func main() {
	var (
		users       = flag.Int("users", 10_000, "fleet size")
		seed        = flag.Int64("seed", 42, "base random seed")
		day         = flag.Duration("day", 24*time.Hour, "simulated horizon")
		bucket      = flag.Duration("bucket", time.Minute, "load-curve resolution")
		shards      = flag.Int("shards", dedup.DefaultShards, "backend store shards")
		parallel    = flag.Int("parallel", 0, "worker cap (0 = shared budget, 1 = sequential)")
		populations = flag.String("populations", "", "comma-separated fleet sizes to sweep (fresh backend each)")
		out         = flag.String("out", "", "output path (default stdout)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()
	if err := checkFlags(*users, *shards, *day, *bucket); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := core.FleetConfig{
		Users:  *users,
		Seed:   *seed,
		Day:    *day,
		Bucket: *bucket,
		Store:  dedup.NewStoreShardedSized(*shards, core.FleetChunkHint(*users, *day)),
	}
	rep := report{
		Users:  *users,
		Seed:   *seed,
		Day:    *day,
		Bucket: *bucket,
		Shards: cfg.Store.Shards(),
	}

	start := time.Now()
	rep.Fleet = core.RunFleet(cfg, *parallel)
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "fleet: %v\n", rep.Fleet)
	fmt.Fprintf(os.Stderr, "wall: %v (%.0f users/s on %d procs)\n",
		wall.Round(time.Millisecond), float64(*users)/wall.Seconds(), runtime.GOMAXPROCS(0))

	if *populations != "" {
		sizes, err := parsePopulations(*populations)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sweepCfg := cfg
		sweepCfg.Store = nil // the sweep allocates a fresh backend per size
		start = time.Now()
		rep.Populations = core.FleetPopulationSweep(sweepCfg, sizes, *parallel)
		fmt.Fprintf(os.Stderr, "sweep %v: %v\n", sizes, time.Since(start).Round(time.Millisecond))
		for _, p := range rep.Populations {
			fmt.Fprintf(os.Stderr, "  users=%-8d dedup=%.3f stored=%dB\n", p.Users, p.DedupRatio, p.StoredBytes)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags rejects negative sizes and durations. Zero keeps its
// meaning (an empty fleet, the default day or bucket, one shard); a
// negative value would otherwise run and print a nonsense rate.
func checkFlags(users, shards int, day, bucket time.Duration) error {
	switch {
	case users < 0:
		return fmt.Errorf("-users must be >= 0 (got %d)", users)
	case shards < 0:
		return fmt.Errorf("-shards must be >= 0 (got %d)", shards)
	case day < 0:
		return fmt.Errorf("-day must be >= 0 (got %v)", day)
	case bucket < 0:
		return fmt.Errorf("-bucket must be >= 0 (got %v)", bucket)
	}
	return nil
}

func parsePopulations(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("fleetbench: bad population %q", p)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
