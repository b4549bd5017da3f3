// Command comparebench runs persistable benchmark campaigns and
// compares them — across tool versions (regression detection) or
// across vantages (the paper's "compare results from different
// locations").
//
// Run a campaign and save it:
//
//	comparebench -run -from twente -reps 8 -out eu.json
//	comparebench -run -from SEA    -reps 8 -out us.json
//
// Each cell repeats -reps times (0 = the paper's 24; the campaign file
// records the count that ran). With -precision it repeats instead
// until its relative CI95 half-width is at most the target (bounded by
// -max-reps; -antithetic and -crn require it), and the campaign file
// records the rule plus per-cell achieved precision, so two campaigns
// can be compared at equal confidence. Comparison output annotates
// each delta with whether it fits inside the union of the two runs'
// achieved confidence intervals.
//
// Compare two campaigns:
//
//	comparebench -a eu.json -b us.json -threshold 1.5
//
// With -fail-on-drift the comparison exits non-zero when any metric
// ratio leaves the threshold band — the CI trend check
// (scripts/trendcheck.sh) uses this to fail builds on
// simulated-metric regressions. With -expect-drift the gate inverts:
// the comparison must show drift, which is how the trend check
// validates a deliberate baseline reset (a committed BASELINE_RESET
// marker naming the new baseline) without ever allowing a silent one.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	var (
		doRun       = flag.Bool("run", false, "run a campaign")
		from        = flag.String("from", "twente", "vantage (city or IATA code)")
		reps        = flag.Int("reps", 8, "repetitions per workload")
		seed        = flag.Int64("seed", 42, "base seed")
		out         = flag.String("out", "", "write campaign JSON here")
		fileA       = flag.String("a", "", "campaign A for comparison")
		fileB       = flag.String("b", "", "campaign B for comparison")
		threshold   = flag.Float64("threshold", 1.3, "report ratios outside [1/t, t]")
		failDrift   = flag.Bool("fail-on-drift", false, "exit non-zero when the comparison reports any difference")
		expectDrift = flag.Bool("expect-drift", false, "invert the gate: exit non-zero when the comparison reports NO difference (validates a sanctioned baseline reset — a stale reset marker must not linger)")
		precision   = flag.Float64("precision", 0, "run the campaign adaptively to this relative CI95 half-width target (0 = fixed -reps)")
		maxReps     = flag.Int("max-reps", core.DefaultMaxReps, "repetition cap per cell in -precision mode")
		antithetic  = flag.Bool("antithetic", false, "-precision mode: antithetic repetition pairs (variance reduction)")
		crn         = flag.Bool("crn", false, "-precision mode: common random numbers across services")
	)
	flag.Parse()
	rule := core.StopRule{TargetRelHW: *precision, MaxReps: *maxReps}
	switch err := rule.Validate(); {
	case *reps < 0:
		usagef("-reps must be >= 0 (got %d)", *reps)
	case err != nil:
		usagef("-precision/-max-reps: %v", err)
	case (*antithetic || *crn) && *precision == 0:
		usagef("-antithetic and -crn require -precision")
	}

	switch {
	case *doRun:
		v, ok := core.VantageByName(*from)
		if !ok {
			fatalf("unknown vantage %q", *from)
		}
		var c core.Campaign
		if *precision > 0 {
			vr := core.VarianceReduction{Antithetic: *antithetic, CRN: *crn}
			c = core.RunFullCampaignAdaptive(v, rule, vr, *seed)
		} else {
			c = core.RunFullCampaign(v, *reps, *seed)
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := c.WriteJSON(w); err != nil {
			fatalf("%v", err)
		}
		if *out != "" {
			fmt.Printf("campaign from %s written to %s\n", v.Name, *out)
		}
	case *fileA != "" && *fileB != "":
		a := readCampaign(*fileA)
		b := readCampaign(*fileB)
		fmt.Printf("A: %s from %s (seed %d)\nB: %s from %s (seed %d)\n\n",
			a.Tool, a.Vantage, a.Seed, b.Tool, b.Vantage, b.Seed)
		cells := core.ComparableCells(a, b)
		deltas := core.Compare(a, b, *threshold)
		fmt.Print(core.DeltaReport(deltas))
		fmt.Printf("(%d comparable cells)\n", cells)
		if *failDrift && *expectDrift {
			fatalf("-fail-on-drift and -expect-drift are mutually exclusive")
		}
		if (*failDrift || *expectDrift) && cells == 0 {
			fatalf("campaigns share no (service, workload) cells; a drift gate over a disjoint comparison proves nothing")
		}
		if *failDrift && len(deltas) > 0 {
			fatalf("simulated metrics drifted: %d deltas outside threshold %.2f", len(deltas), *threshold)
		}
		if *expectDrift && len(deltas) == 0 {
			fatalf("baseline reset declared but simulated metrics did not drift (threshold %.2f); the reset marker is stale — remove it", *threshold)
		}
		if *expectDrift {
			fmt.Printf("sanctioned baseline reset confirmed: %d deltas outside threshold %.2f\n", len(deltas), *threshold)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func readCampaign(path string) core.Campaign {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	c, err := core.ReadCampaign(f)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return c
}

// usagef reports a flag error and exits 2, like the flag package.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
