// Command capcheck runs the Sect. 4 capability-detection suite and
// prints the detected capability matrix (Table 1), plus the detail
// behind each verdict.
//
// Usage:
//
//	capcheck [-service NAME|all] [-seed N] [-verbose] [-parallel N]
//	capcheck -precision 0.05 [-max-reps N] [-service NAME|all]
//
// -parallel fans the service x detector matrix out over a shared
// worker pool (0 = one worker per CPU, 1 = sequential); detections
// are bit-identical at any setting.
//
// -precision repeats the detection suite across a seed stream until
// the continuous bundling statistic (connections per file) is tight,
// reporting per service whether the boolean verdicts were unanimous —
// detection robustness quantified instead of assumed from one seed.
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
	if err := rule.Validate(); err != nil {
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
		for _, p := range profiles {
			cc := core.DetectCapabilitiesAdaptive(p, rule, *seed)
			caps[p.Service] = cc.Capabilities
			order = append(order, p.Service)
			fmt.Printf("%-14s%12v%12d%11.2f%%\n",
				p.Service, cc.Unanimous, cc.RepsUsed, cc.AchievedRelHW*100)
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
			b := core.DetectBundling(p, *seed)
			fmt.Printf("%s:\n", p.Name)
			fmt.Printf("  chunking:          %s\n", c.Chunking)
			fmt.Printf("  connections/file:  %.2f\n", b.ConnsPerFile)
			fmt.Printf("  sequential acks:   %v\n", b.SequentialAcks)
			fmt.Printf("  bundling:          %v\n", c.Bundling)
			fmt.Printf("  compression:       %s\n", c.Compression)
			fmt.Printf("  dedup:             %v (after delete/restore: %v)\n", c.Dedup, c.DedupAfterDelete)
			fmt.Printf("  delta encoding:    %v\n", c.DeltaEncoding)
		}
	}
	fmt.Print(core.Table1(caps, order))
}
