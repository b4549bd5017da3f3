// Command cloudbench runs the complete benchmarking campaign of
// "Benchmarking Personal Cloud Storage" (IMC'13): capability checks,
// performance benchmarks, idle-traffic measurement and architecture
// discovery, for one service or all five.
//
// Usage:
//
//	cloudbench [-service NAME|all] [-experiment NAME|all] [-reps N] [-seed N] [-parallel N]
//	cloudbench -loss RATES [-service NAME|all] [-reps N] [-seed N] [-parallel N]
//
// Experiments: table1, fig1, fig3, fig4, fig5, fig6, discover, all.
//
// -loss switches to the loss-sweep mode: a comma-separated list of
// segment-loss rates (e.g. "0.005,0.02,0.08") crossed with the
// selected services, each cell a summarized set of lossy upload
// repetitions through the analytic lossy transport engine.
//
// The repeated experiments (fig6, locations, the loss sweep) run every
// cell through one campaign driver. By default each cell repeats a
// fixed -reps times (0 = the paper's 24). -precision gives the driver
// a stopping rule instead: each cell runs until the relative CI95
// half-width of its headline metrics is at most the target (e.g. 0.05
// for ±5%), bounded by -min-reps/-max-reps. -antithetic pairs
// repetitions on mirrored random streams and -crn gives every service
// a common random-number stream — both shrink the variance so the
// target is hit with fewer repetitions; both require -precision.
// Either way results, including the number of repetitions executed,
// are bit-identical at any -parallel setting.
//
// Table 1 runs the same driver with one cell per service, each
// repetition (probe) the five Sect. 4 detectors on one seed. By
// default every service gets a single probe on -seed. Under
// -precision each service's probes repeat across a seed stream until
// the relative CI95 half-width of the bundling statistic (connections
// per file) is at most the target, bounded by -min-reps/-max-reps,
// and a table of probes, achieved precision and whether every probe
// detected the same capabilities precedes Table 1. -antithetic and
// -crn do not apply to the capability suite: its probes run on plain,
// independent seeds.
//
// -parallel sets the fan-out of the whole experiment matrix: every
// independent cell — benchmark repetitions, Fig. 4/5 sweep sizes,
// capability detectors, (service, workload, vantage) combinations —
// runs concurrently on its own isolated testbed, drawing from one
// shared worker budget (0 = one worker per CPU, 1 = the classic
// sequential engine; nested fan-outs never oversubscribe). Every cell
// derives all randomness from its own index, so results are
// bit-identical at any worker count; -parallel only changes
// wall-clock time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/plot"
	"repro/internal/workload"
)

func main() {
	var (
		service    = flag.String("service", "all", "service to benchmark (dropbox, skydrive, wuala, googledrive, clouddrive, all)")
		experiment = flag.String("experiment", "all", "experiment to run (table1, fig1, fig3, fig4, fig5, fig6, discover, protocols, bundling, recovery, propagation, locations, whatif, all)")
		reps       = flag.Int("reps", core.DefaultReps, "repetitions per benchmark cell of fig6, locations and the loss sweep (the paper uses 24; table1 probes once)")
		seed       = flag.Int64("seed", 42, "base random seed")
		doPlot     = flag.Bool("plot", false, "render ASCII charts for figs 1, 3 and 6")
		parallel   = flag.Int("parallel", 0, "concurrent experiment cells across the whole matrix (0 = one per CPU, 1 = sequential; results are identical at any setting)")
		loss       = flag.String("loss", "", "comma-separated segment-loss rates (e.g. 0.005,0.02,0.08): run the loss-sweep mode instead of -experiment")
		precision  = flag.Float64("precision", 0, "adaptive sampling: stop each repeated cell, table1's probes included, once the relative CI95 half-width is at most this (e.g. 0.05); 0 = fixed -reps")
		minReps    = flag.Int("min-reps", core.DefaultMinReps, "adaptive sampling: smallest sample a cell may stop at")
		maxReps    = flag.Int("max-reps", core.DefaultMaxReps, "adaptive sampling: hard repetition cap per cell")
		antithetic = flag.Bool("antithetic", false, "adaptive sampling: pair repetitions on mirrored random streams (variance reduction; not for table1)")
		crn        = flag.Bool("crn", false, "adaptive sampling: common random numbers across services (pairs cross-service comparisons; not for table1)")
	)
	flag.Parse()
	d := design{
		reps: *reps,
		rule: core.StopRule{TargetRelHW: *precision, MinReps: *minReps, MaxReps: *maxReps},
		vr:   core.VarianceReduction{Antithetic: *antithetic, CRN: *crn},
	}
	if err := checkFlags(*parallel, *reps, d); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	core.CampaignWorkers = *parallel

	profiles, err := selectProfiles(*service)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *loss != "" {
		rates, err := parseLossRates(*loss)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		lossSweep(profiles, rates, d, *seed)
		return
	}
	run := func(name string) bool { return *experiment == "all" || *experiment == name }

	any := false
	if run("table1") {
		any = true
		table1(profiles, d, *seed)
	}
	if run("fig1") {
		any = true
		fig1(profiles, *seed, *doPlot)
	}
	if run("fig3") {
		any = true
		fig3(*seed, *doPlot)
	}
	if run("fig4") {
		any = true
		fig4(profiles, *seed)
	}
	if run("fig5") {
		any = true
		fig5(profiles, *seed)
	}
	if run("fig6") {
		any = true
		fig6(profiles, d, *seed, *doPlot)
	}
	if run("discover") {
		any = true
		discover(profiles, *seed)
	}
	if run("protocols") {
		any = true
		protocols(profiles, *seed)
	}
	if run("bundling") {
		any = true
		bundling(profiles, *seed)
	}
	if run("recovery") {
		any = true
		recovery(*seed)
	}
	if run("propagation") {
		any = true
		propagation(profiles, *seed)
	}
	if run("locations") {
		any = true
		locations(profiles, d, *seed)
	}
	if run("whatif") {
		any = true
		whatif(*seed)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// design is how the repeated experiments sample each cell: a fixed
// -reps budget or, with -precision, a stopping rule.
type design struct {
	reps int
	rule core.StopRule
	vr   core.VarianceReduction
}

func (d design) adaptive() bool { return d.rule.TargetRelHW > 0 }

// checkFlags rejects a worker or repetition count below zero (zero
// means one worker per CPU, or the paper's DefaultReps), a stopping
// rule no campaign under the design's variance reduction can honour,
// and variance reduction without the precision target it serves.
func checkFlags(parallel, reps int, d design) error {
	switch {
	case parallel < 0:
		return fmt.Errorf("-parallel must be >= 0 (got %d)", parallel)
	case reps < 0:
		return fmt.Errorf("-reps must be >= 0 (got %d)", reps)
	}
	if err := d.rule.Validate(d.vr); err != nil {
		return fmt.Errorf("-precision/-min-reps/-max-reps: %w", err)
	}
	if (d.vr.Antithetic || d.vr.CRN) && !d.adaptive() {
		return errors.New("-antithetic and -crn require -precision")
	}
	return nil
}

// label describes the design in a section header: the repetitions
// each unit ran, or the precision target and cap.
func (d design) label(ran int, unit string) string {
	if d.adaptive() {
		return fmt.Sprintf("adaptive to ±%.1f%% (max %d reps)", d.rule.TargetRelHW*100, d.rule.MaxReps)
	}
	return fmt.Sprintf("%d repetitions per %s", ran, unit)
}

func selectProfiles(service string) ([]client.Profile, error) {
	if service == "all" {
		return client.Profiles(), nil
	}
	p, ok := client.ProfileFor(service)
	if !ok {
		return nil, fmt.Errorf("unknown service %q (valid: %s, all)",
			service, strings.Join(cloud.ServiceNames, ", "))
	}
	return []client.Profile{p}, nil
}

// table1 detects every service's capabilities from one probe or,
// under -precision, from probes repeated until the bundling statistic
// is tight, preceded by how many probes ran, the precision they
// reached and whether they agreed. Variance reduction does not apply.
func table1(profiles []client.Profile, d design, seed int64) {
	var order []string
	for _, p := range profiles {
		order = append(order, p.Service)
	}
	if !d.adaptive() {
		fmt.Println("== Table 1: capabilities per service (detected from traffic) ==")
		fmt.Print(core.Table1(core.DetectCapabilitiesAll(profiles, seed), order))
		fmt.Println()
		return
	}
	fmt.Printf("== Table 1: capabilities per service (detected from traffic), %s ==\n", d.label(0, ""))
	fmt.Printf("%-14s%12s%12s%12s\n", "service", "unanimous", "probes", "achieved")
	caps := make(map[string]core.Capabilities, len(profiles))
	for _, cc := range core.DetectCapabilitiesAdaptive(profiles, d.rule, seed) {
		caps[cc.Capabilities.Service] = cc.Capabilities
		fmt.Printf("%-14s%12v%12d%11.2f%%\n",
			cc.Capabilities.Service, cc.Unanimous, cc.RepsUsed, cc.AchievedRelHW*100)
	}
	fmt.Println()
	fmt.Print(core.Table1(caps, order))
	fmt.Println()
}

func fig1(profiles []client.Profile, seed int64, doPlot bool) {
	fmt.Println("== Fig 1: background traffic while idle (16 min) ==")
	results := core.RunN(len(profiles), 0, func(i int) core.IdleResult {
		return core.RunIdle(profiles[i], seed)
	})
	fmt.Print(core.Fig1Report(results))
	if doPlot {
		var series []plot.Series
		for _, r := range results {
			s := plot.Series{Label: r.Service}
			for _, pt := range sampleTimeline(r) {
				s.X = append(s.X, pt.t/60)
				s.Y = append(s.Y, pt.kb)
			}
			series = append(series, s)
		}
		fmt.Println()
		fmt.Print(plot.Lines(series, plot.Options{
			Title:  "Fig 1: cumulative control traffic while idle",
			XLabel: "minutes", YLabel: "kB",
		}))
	}
	fmt.Println("\ncumulative timeline (CSV: service,t_seconds,kbytes)")
	for _, r := range results {
		for _, pt := range sampleTimeline(r) {
			fmt.Printf("%s,%.0f,%.1f\n", r.Service, pt.t, pt.kb)
		}
	}
	fmt.Println()
}

type tlPoint struct {
	t  float64
	kb float64
}

// sampleTimeline thins a cumulative timeline to one point per minute
// so the CSV stays plottable by eye.
func sampleTimeline(r core.IdleResult) []tlPoint {
	if len(r.Timeline) == 0 {
		return nil
	}
	t0 := r.Timeline[0].Time
	var out []tlPoint
	nextMark := 0.0
	for _, pt := range r.Timeline {
		sec := pt.Time.Sub(t0).Seconds()
		if sec >= nextMark {
			out = append(out, tlPoint{t: sec, kb: float64(pt.Bytes) / 1000})
			nextMark = sec + 60
		}
	}
	return out
}

func fig3(seed int64, doPlot bool) {
	fmt.Println("== Fig 3: cumulative TCP SYNs while uploading 100 x 10 kB ==")
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	var series []plot.Series
	for _, svc := range []string{"clouddrive", "googledrive"} {
		p, _ := client.ProfileFor(svc)
		s := core.RunSYNCount(p, batch, seed)
		fmt.Printf("%s: %d connections, upload completed in %s\n",
			svc, len(s.Times), core.FormatDuration(s.Duration))
		if doPlot {
			ps := plot.Series{Label: svc}
			for i, t := range s.Times {
				ps.X = append(ps.X, t.Seconds())
				ps.Y = append(ps.Y, float64(i+1))
			}
			series = append(series, ps)
			continue
		}
		fmt.Print(core.SYNSeriesCSV(s))
	}
	if doPlot {
		fmt.Println()
		fmt.Print(plot.Lines(series, plot.Options{
			Title: "Fig 3: cumulative TCP SYNs", XLabel: "seconds", YLabel: "SYNs",
		}))
	}
	fmt.Println()
}

func fig4(profiles []client.Profile, seed int64) {
	fmt.Println("== Fig 4: delta encoding tests (upload after modifying a file) ==")
	for _, mod := range []core.ModKind{core.ModAppend, core.ModRandom} {
		fmt.Printf("-- %s, +100 kB (CSV: series,file_bytes,upload_bytes)\n", mod)
		series := core.RunN(len(profiles), 0, func(i int) []core.VolumePoint {
			return core.Fig4DeltaSeries(profiles[i], mod, core.Fig4Sizes(mod), 100<<10, seed)
		})
		for i, pts := range series {
			fmt.Print(core.VolumeSeriesCSV(profiles[i].Service+"-"+mod.String(), pts))
		}
	}
	fmt.Println()
}

func fig5(profiles []client.Profile, seed int64) {
	fmt.Println("== Fig 5: bytes uploaded during the compression test ==")
	for _, kind := range []workload.Kind{workload.Text, workload.Binary, workload.FakeJPEG} {
		fmt.Printf("-- %s files (CSV: series,file_bytes,upload_bytes)\n", kind)
		series := core.RunN(len(profiles), 0, func(i int) []core.VolumePoint {
			return core.Fig5CompressionSeries(profiles[i], kind, core.Fig5Sizes(), seed)
		})
		for i, pts := range series {
			fmt.Print(core.VolumeSeriesCSV(profiles[i].Service+"-"+kind.String(), pts))
		}
	}
	fmt.Println()
}

func fig6(profiles []client.Profile, d design, seed int64, doPlot bool) {
	var results []core.Fig6Result
	if d.adaptive() {
		results = core.Fig6MatrixAdaptive(profiles, d.rule, d.vr, seed)
	} else {
		results = core.Fig6Matrix(profiles, d.reps, seed)
	}
	fmt.Printf("== Fig 6: benchmarks, %s ==\n", d.label(results[0].Summaries[0].Reps, "workload"))
	fmt.Print(core.Fig6Report(results))
	if d.adaptive() {
		fmt.Print(core.PrecisionReport(results))
	}
	if doPlot {
		var labels []string
		for _, r := range results {
			labels = append(labels, r.Service)
		}
		var groups []plot.BarGroup
		for wi, w := range results[0].Workloads {
			g := plot.BarGroup{Label: w.String()}
			for _, r := range results {
				g.Values = append(g.Values, r.Summaries[wi].MeanCompletion.Seconds())
			}
			groups = append(groups, g)
		}
		fmt.Println()
		fmt.Print(plot.Bars(groups, labels, plot.Options{
			Title: "Fig 6(b): completion time (s)", Width: 48, LogY: true,
		}))
	}
	fmt.Println()
}

func discover(profiles []client.Profile, seed int64) {
	fmt.Println("== Architecture discovery (Sect. 2.1 / 3.2, Fig. 2) ==")
	for _, p := range profiles {
		fmt.Print(core.DiscoveryReport(core.Discover(p, seed)))
	}
	fmt.Println()
}

func protocols(profiles []client.Profile, seed int64) {
	fmt.Println("== Protocol behaviour (Sect. 3.1) ==")
	fmt.Printf("%-14s%-12s%-8s%-14s%-14s%-12s%s\n",
		"service", "poll", "conn/", "idle (b/s)", "login", "split", "plain HTTP")
	fmt.Printf("%-14s%-12s%-8s%-14s%-14s%-12s%s\n",
		"", "interval", "poll", "", "srv / kB", "ctl/sto", "")
	for _, p := range profiles {
		r := core.AnalyzeProtocols(p, seed)
		fmt.Printf("%-14s%-12s%-8v%-14.0f%2d / %-8.0f%-12v%v\n",
			r.Service, r.PollInterval, r.PollConnPerPoll, r.IdleRateBps,
			r.LoginServers, float64(r.LoginBytes)/1000,
			r.SplitControlStorage, r.PlainHTTPNames)
	}
	fmt.Println()
}

func bundling(profiles []client.Profile, seed int64) {
	fmt.Println("== Bundling test (Sect. 4.2): 1 MB split into 1/10/100/1000 files ==")
	for _, p := range profiles {
		st := core.RunBundlingStudy(p, 1_000_000, seed)
		fmt.Printf("%-14s", st.Service)
		for i, r := range st.Results {
			fmt.Printf("  %s: %6.1fs %4d conns %5.2fx |", st.Sets[i], r.Completion.Seconds(), r.Connections, r.Overhead)
		}
		fmt.Println()
	}
	fmt.Println()
}

func recovery(seed int64) {
	fmt.Println("== Upload recovery under failures (Sect. 4.1 motivation) ==")
	fmt.Println("16 MB upload, storage path fails every 4 s:")
	fmt.Printf("%-14s%-12s%-10s%-12s%s\n", "chunking", "completed", "retries", "waste", "time")
	for _, size := range []int64{0, 8 << 20, 4 << 20, 1 << 20} {
		r := core.RunRecovery(size, 16<<20, 4*time.Second, seed)
		fmt.Printf("%-14s%-12v%-10d%-12.2f%s\n",
			r.ChunkLabel, r.Completed, r.Retries, r.WasteRatio,
			core.FormatDuration(r.Completion))
	}
	fmt.Println()
}

func propagation(profiles []client.Profile, seed int64) {
	fmt.Println("== Two-device propagation (upload -> notify -> download) ==")
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	fmt.Printf("%-14s%10s%12s%12s%12s\n", "service", "upload", "notify", "download", "total")
	for _, p := range profiles {
		r := core.RunPropagation(p, batch, seed)
		fmt.Printf("%-14s%9.1fs%11.1fs%11.1fs%11.1fs\n",
			r.Service, r.Upload.Seconds(), r.Notify.Seconds(),
			r.Download.Seconds(), r.Total.Seconds())
	}
	fmt.Println()
}

func locations(profiles []client.Profile, d design, seed int64) {
	var vantages []core.Vantage
	for _, name := range []string{"twente", "SEA", "IAD", "SIN", "SYD"} {
		v, ok := core.VantageByName(name)
		if !ok {
			continue
		}
		vantages = append(vantages, v)
	}
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	var cells []core.LocationSummary
	if d.adaptive() {
		cells = core.LocationStudyAdaptive(profiles, batch, vantages, d.rule, d.vr, seed)
	} else {
		cells = core.LocationStudy(profiles, batch, vantages, d.reps, seed)
	}
	fmt.Printf("== Location study: %s mean completion per vantage, %s ==\n", batch, d.label(cells[0].Summary.Reps, "cell"))
	fmt.Print(core.LocationReport(cells, vantages))
	fmt.Println()
}

func parseLossRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-loss: %q is not a number", part)
		}
		if err := netem.CheckPath(r, 0); err != nil {
			return nil, fmt.Errorf("-loss: %w", err)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-loss: no rates in %q", s)
	}
	return rates, nil
}

func lossSweep(profiles []client.Profile, rates []float64, d design, seed int64) {
	var cells []core.LossCell
	if d.adaptive() {
		cells = core.LossSweepAdaptive(profiles, rates, core.DefaultLossBatch, core.Twente, d.rule, d.vr, seed)
	} else {
		cells = core.LossSweep(profiles, rates, core.DefaultLossBatch, core.Twente, d.reps, seed)
	}
	fmt.Printf("== Loss sweep: %s, %s ==\n", core.DefaultLossBatch, d.label(cells[0].Summary.Reps, "cell"))
	fmt.Printf("%-14s%10s%14s%12s%12s", "service", "loss", "completion", "startup", "overhead")
	if d.adaptive() {
		fmt.Printf("%8s%12s", "reps", "achieved")
	}
	fmt.Println()
	for _, c := range cells {
		s := c.Summary
		fmt.Printf("%-14s%9.2f%%%13.1fs%11.1fs%11.2fx", c.Service, c.LossRate*100,
			s.MeanCompletion.Seconds(), s.MeanStartup.Seconds(), s.MeanOverhead)
		if d.adaptive() {
			fmt.Printf("%8d%11.2f%%", s.RepsUsed, s.AchievedRelHW*100)
		}
		fmt.Println()
	}
	fmt.Print("\nCSV: service,loss_rate,completion_s,startup_s,overhead_x")
	if d.adaptive() {
		fmt.Print(",reps_used,achieved_rel_hw")
	}
	fmt.Println()
	for _, c := range cells {
		s := c.Summary
		fmt.Printf("%s,%g,%.3f,%.3f,%.3f", c.Service, c.LossRate,
			s.MeanCompletion.Seconds(), s.MeanStartup.Seconds(), s.MeanOverhead)
		if d.adaptive() {
			fmt.Printf(",%d,%.5f", s.RepsUsed, s.AchievedRelHW)
		}
		fmt.Println()
	}
	fmt.Println()
}

func whatif(seed int64) {
	fmt.Println("== What-if studies (the paper's counterfactuals) ==")
	for _, r := range core.WhatIfStudies(seed) {
		fmt.Printf("%-32s %s: %.2f -> %s: %.2f (%s)\n",
			r.Name, r.BaselineLabel, r.Baseline, r.VariantLabel, r.Variant, r.Unit)
	}
	fmt.Printf("%-32s %.0f MB/day of background traffic\n",
		"clouddrive-daily-volume", core.CloudDriveDailyBackgroundMB(seed))
	fmt.Println()
}
