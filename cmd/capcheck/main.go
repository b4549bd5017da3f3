// Command capcheck runs the Sect. 4 capability-detection suite and
// prints the detected capability matrix (Table 1), plus the detail
// behind each verdict.
//
// Usage:
//
//	capcheck [-service NAME|all] [-seed N] [-verbose] [-parallel N]
//	capcheck -precision 0.05 [-max-reps N] [-service NAME|all]
//
// Both modes run one capability driver: a repeated cell per service,
// each repetition (probe) the five Sect. 4 detectors on one seed. By
// default every service gets a single probe on -seed. -precision
// instead repeats each service's probes across a seed stream until its
// continuous bundling statistic (connections per file) is tight, and
// reports whether the boolean verdicts were unanimous — detection
// robustness quantified instead of assumed from one seed.
//
// -verbose prints each service's verdicts one per line before the
// table: chunking, bundling, compression, both deduplication verdicts
// and delta encoding. It prints no connections per file or sequential
// acknowledgments: those are the bundling detector's intermediate
// statistics, which the probe does not hand out. -precision reports
// how tight connections per file became; cloudbench -experiment fig3
// prints the connections of the same 100-file upload for Google Drive
// and Cloud Drive.
//
// -parallel fans the services, their probes and the detectors of each
// probe out over a shared worker pool (0 = one worker per CPU, 1 =
// sequential); detections are bit-identical at any setting.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/client"
	"repro/internal/core"
)

func main() {
	var (
		service   = flag.String("service", "all", "service to check, or all")
		seed      = flag.Int64("seed", 42, "random seed")
		verbose   = flag.Bool("verbose", false, "print per-test details")
		parallel  = flag.Int("parallel", 0, "concurrent detectors across all services (0 = one per CPU, 1 = sequential; results are identical at any setting)")
		precision = flag.Float64("precision", 0, "repeat detection until the bundling statistic's relative CI95 half-width is at most this (0 = single probe)")
		maxReps   = flag.Int("max-reps", core.DefaultMaxReps, "repetition cap for -precision mode")
	)
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "-parallel must be >= 0 (got %d)\n", *parallel)
		os.Exit(2)
	}
	core.CampaignWorkers = *parallel
	rule := core.StopRule{TargetRelHW: *precision, MaxReps: *maxReps}
	if err := rule.Validate(core.VarianceReduction{}); err != nil {
		fmt.Fprintf(os.Stderr, "-precision/-max-reps: %v\n", err)
		os.Exit(2)
	}

	var profiles []client.Profile
	if *service == "all" {
		profiles = client.Profiles()
	} else {
		p, ok := client.ProfileFor(*service)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown service %q\n", *service)
			os.Exit(2)
		}
		profiles = []client.Profile{p}
	}

	if *precision > 0 {
		fmt.Printf("%-14s%12s%12s%12s\n", "service", "unanimous", "probes", "achieved")
		caps := map[string]core.Capabilities{}
		var order []string
		for _, cc := range core.DetectCapabilitiesAdaptive(profiles, rule, *seed) {
			svc := cc.Capabilities.Service
			caps[svc] = cc.Capabilities
			order = append(order, svc)
			fmt.Printf("%-14s%12v%12d%11.2f%%\n",
				svc, cc.Unanimous, cc.RepsUsed, cc.AchievedRelHW*100)
		}
		fmt.Println()
		fmt.Print(core.Table1(caps, order))
		return
	}

	caps := core.DetectCapabilitiesAll(profiles, *seed)
	var order []string
	for _, p := range profiles {
		c := caps[p.Service]
		order = append(order, p.Service)
		if *verbose {
			fmt.Printf("%s:\n", p.Name)
			fmt.Printf("  chunking:          %s\n", c.Chunking)
			fmt.Printf("  bundling:          %v\n", c.Bundling)
			fmt.Printf("  compression:       %s\n", c.Compression)
			fmt.Printf("  dedup:             %v (after delete/restore: %v)\n", c.Dedup, c.DedupAfterDelete)
			fmt.Printf("  delta encoding:    %v\n", c.DeltaEncoding)
		}
	}
	fmt.Print(core.Table1(caps, order))
}
