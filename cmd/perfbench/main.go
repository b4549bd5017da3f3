package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"cpu_us_per_item", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, n := range layerNames {
		out = append(out, metricDef{n + "_frac", "frac"})
	}
	out = append(out,
		metricDef{"core.summarize_frac", "frac"},
		metricDef{"core.cell_p50_ms", "ms"},
		metricDef{"core.cell_p95_ms", "ms"},
		metricDef{"core.runn_busy_frac", "frac"},
		metricDef{"core.tracing_overhead_frac", "frac"},
		metricDef{"trace.records", "count"},
		metricDef{"trace.flows", "count"},
		metricDef{"client.units", "count"},
		metricDef{"client.upload_bytes", "bytes"},
		metricDef{"client.dedup_skipped_bytes", "bytes"},
		metricDef{"tcpsim.connections", "count"},
		metricDef{"dedup.puts", "count"},
		metricDef{"dedup.hits", "count"},
		metricDef{"dedup.hit_ratio", "frac"},
		metricDef{"core.fleet_sessions", "count"},
		metricDef{"core.fleet_chunks", "count"},
		metricDef{"runtime.alloc_kb_per_op", "KiB"},
		metricDef{"runtime.mallocs_per_op", "count"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
	)
	for _, l := range cpuLayers {
		out = append(out, metricDef{l.metric, "frac"})
	}
	return out
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	update   bool
	procs    int
	// Set only by the package tests: toy-size ops, and exactly ops ops
	// per child instead of --seconds.
	toy bool
	ops int
}

// digestsPath is the committed digest file, from the repository root;
// --update rewrites it.
const digestsPath = "cmd/perfbench/testdata/digests.json"

func parseOptions(args []string) (options, error) {
	o := options{procs: min(runtime.NumCPU(), 4)}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 42, "seed of op 0; op k runs on seed+k")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the closed loop runs")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "where a traced run writes spans, profile and summary")
	fs.BoolVar(&o.update, "update", false, "rewrite the committed op digests (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", o.trace)
	case o.update && o.seed != digestSeed:
		return o, fmt.Errorf("--update records the digests of seed %d only", digestSeed)
	}
	if o.workload != "all" {
		if _, ok := lookupWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func childMain(args []string, stdout io.Writer) int {
	o, err := parseChild(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	rep, err := runChild(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func parentMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var names []string
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{o.workload}
	}

	results := make([]result, len(names))
	for i, name := range names {
		var err error
		if o.trace == 1 {
			results[i], err = traceWorkload(exe, o, name, stdout)
		} else {
			results[i], err = measureWorkload(exe, o, name, stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printTable(stdout, name, results[i])
	}
	last := results[0]
	if len(names) > 1 {
		last = combine(names, results)
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// combine folds the results of several workloads into one line, each
// metric prefixed by its workload.
func combine(names []string, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			out.Metrics[names[i]+"/"+k] = m
		}
	}
	return out
}

// printTable prints one workload's metrics by name, with units.
func printTable(w io.Writer, name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// spawn starts one child, waits for it and returns its report.
func spawn(exe string, procs int, o childOptions) (childReport, error) {
	var rep childReport
	var out bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	o.t0 = time.Now().UnixNano()
	cmd.Args = append(cmd.Args, o.args()...)
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s child: %w", o.mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("%s child report: %w", o.mode, err)
	}
	return rep, nil
}

// measureWorkload is an untraced run: the measured closed loop in a
// fresh process.
func measureWorkload(exe string, o options, name string, stdout io.Writer) (result, error) {
	run := childOptions{mode: "run", workload: name, seed: o.seed, seconds: o.seconds, ops: o.ops, toy: o.toy}
	rep, err := spawn(exe, o.procs, run)
	if err != nil {
		return result{}, err
	}
	describe(stdout, name, o, rep)

	failed, err := checkDigests(o, name, rep)
	if err != nil {
		return result{}, err
	}
	// Medians over the run's ops, so that a burst of load from outside
	// the process moves a few ops, not the metric; times scaled to the
	// reference speed (calibrate.go).
	items, slow := float64(rep.ItemsOp), refSlowdown(rep)
	perOp := func(v []float64, f func(float64) float64) float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = f(x)
		}
		return stats.Median(out)
	}
	return result{
		Correct:   failed == 0,
		Attempted: rep.Ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"items_per_s":     {perOp(rep.OpWallS, func(s float64) float64 { return items / s * slow }), "1/s"},
			"cpu_us_per_item": {perOp(rep.OpCPUS, func(s float64) float64 { return s * 1e6 / items / slow }), "us"},
			"peak_rss_mb":     {stats.Median(rep.OpRSSMB), "MB"},
			"setup_s":         {setupS(rep), "s"},
		},
	}, nil
}

// refSlowdown is how much slower than nominal the machine ran a child's
// reference kernel: its median kernel time over refNominal.
func refSlowdown(rep childReport) float64 {
	return stats.Median(rep.RefS) / refNominal.Seconds()
}

// setupS is a run's set-up time at the reference speed: the median over
// its probes, each scaled by the kernel time taken just before it. Each
// probe runs right after its kernel and so sees the same load, which on
// a shared machine comes and goes within a run.
func setupS(rep childReport) float64 {
	v := make([]float64, len(rep.ProbeS))
	for i, s := range rep.ProbeS {
		v[i] = s * refNominal.Seconds() / rep.RefS[i]
	}
	return stats.Median(v)
}

// describe prints what ran, where, and the run's digest.
func describe(w io.Writer, name string, o options, rep childReport) {
	fmt.Fprintf(w, "# %s seed=%d ops=%d items/op=%d wall=%.3fs ref=%.2fms setup=%.3fms procs=%d num_cpu=%d %s digest=%s\n",
		name, o.seed, rep.Ops, rep.ItemsOp, total(rep.OpWallS), 1e3*stats.Median(rep.RefS), 1e3*stats.Median(rep.ProbeS),
		rep.Procs, rep.NumCPU, rep.GoVersion, runDigest(rep.Digests))
	for i, p := range rep.Problems {
		if i == 10 {
			fmt.Fprintf(w, "#   ... %d more\n", len(rep.Problems)-i)
			break
		}
		fmt.Fprintf(w, "#   FAIL %s\n", p)
	}
}

// runDigest is the SHA-256 over a run's op digests in order.
func runDigest(ops []string) string {
	sum := sha256.Sum256([]byte(strings.Join(ops, "\n")))
	return hex.EncodeToString(sum[:])
}

// digestSeed is the seed whose op digests are committed.
const digestSeed = 42

//go:embed testdata/digests.json
var committedDigests []byte

type digestFile struct {
	Seed    int64               `json:"seed"`
	Digests map[string][]string `json:"digests"`
}

// checkDigests compares a full-size run of the committed seed with the
// committed op digests, or records them under --update. A mismatch fails
// every op of the run. It returns the run's failed-op count.
func checkDigests(o options, name string, rep childReport) (int, error) {
	if o.seed != digestSeed || o.toy {
		return rep.Failed, nil
	}
	var f digestFile
	if err := json.Unmarshal(committedDigests, &f); err != nil {
		return 0, fmt.Errorf("committed digests: %w", err)
	}
	if o.update {
		if err := updateDigests(digestsPath, name, rep.Digests); err != nil {
			return 0, err
		}
		return rep.Failed, nil
	}
	want := f.Digests[name]
	for k, d := range rep.Digests {
		if k < len(want) && d != want[k] {
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d digest %s, committed %s\n", name, k, d, want[k])
			return rep.Ops, nil
		}
	}
	return rep.Failed, nil
}

func updateDigests(path, name string, digests []string) error {
	f := digestFile{Seed: digestSeed, Digests: map[string][]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Digests[name] = digests
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceWorkload is a traced run: an untraced process runs half the
// duration through the public API, then a traced process runs the same
// ops from rebuilt cells under the CPU profiler. Both start cold.
func traceWorkload(exe string, o options, name string, stdout io.Writer) (result, error) {
	dir := filepath.Join(o.traceDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	plain := childOptions{mode: "run", workload: name, seed: o.seed, seconds: o.seconds / 2, ops: o.ops, toy: o.toy}
	ra, err := spawn(exe, o.procs, plain)
	if err != nil {
		return result{}, err
	}
	traced := plain
	traced.mode, traced.ops, traced.dir = "traced", ra.Ops, dir
	rb, err := spawn(exe, o.procs, traced)
	if err != nil {
		return result{}, err
	}
	describe(stdout, name, o, rb)

	failed, err := checkDigests(o, name, ra)
	if err != nil {
		return result{}, err
	}
	failed = max(failed, rb.Failed)
	if runDigest(ra.Digests) != runDigest(rb.Digests) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: rebuilt cells digest %s, public API %s\n",
			name, runDigest(rb.Digests), runDigest(ra.Digests))
		failed = rb.Ops
	}
	shares, err := profileShares(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return result{}, err
	}
	metrics := layerMetrics(ra, rb, o.procs, shares)
	share := layerShare(rb.Layers)
	summary := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Procs       int                `json:"procs"`
		Ops         int                `json:"ops"`
		Cells       int                `json:"cells"`
		CellMs      float64            `json:"cell_ms"`
		LayerMs     map[string]float64 `json:"layer_ms"`
		LayerSum    float64            `json:"layer_sum_over_cell"`
		SummarizeMs float64            `json:"summarize_ms"`
		Metrics     map[string]metric  `json:"metrics"`
	}{
		Workload: name, Seed: o.seed, Procs: o.procs, Ops: rb.Ops, Cells: len(rb.Layers.CellNs),
		CellMs: ms(total(rb.Layers.CellNs)), LayerMs: map[string]float64{}, LayerSum: share,
		SummarizeMs: ms(rb.Layers.SummarizeNs), Metrics: metrics,
	}
	for l, ns := range rb.Layers.LayerNs {
		summary.LayerMs[layerNames[l]] = ms(ns)
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.json"), append(b, '\n'), 0o644); err != nil {
		return result{}, err
	}
	// The timed layers must account for the cells they run in.
	layersOK := share == 0 || share > 0.95 && share < 1.05
	if !layersOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s: timed layers add up to %.3f of cell time\n", name, share)
	}
	return result{Correct: failed == 0 && layersOK, Attempted: rb.Ops, Failed: failed, Metrics: metrics}, nil
}

func total[T int64 | float64](v []T) T {
	var s T
	for _, x := range v {
		s += x
	}
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerShare is the timed layers' share of the cell time; 0 when the
// workload's cells have no timed layers.
func layerShare(l *layerReport) float64 {
	cells := total(l.CellNs)
	if cells == 0 {
		return 0
	}
	return float64(total(l.LayerNs[:])) / float64(cells)
}

// layerMetrics derives every per-layer metric from the untraced (ra)
// and traced (rb) runs of the same ops and the traced run's CPU shares.
func layerMetrics(ra, rb childReport, procs int, shares map[string]float64) map[string]metric {
	l := rb.Layers
	cells := float64(total(l.CellNs))
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{}
	put := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}
	for i, ns := range l.LayerNs {
		put(layerNames[i]+"_frac", frac(float64(ns), cells))
	}
	cellMs := make([]float64, len(l.CellNs))
	for i, ns := range l.CellNs {
		cellMs[i] = ms(ns)
	}
	c := l.Counts
	put("core.summarize_frac", frac(float64(l.SummarizeNs), float64(l.OpNs)))
	put("core.cell_p50_ms", stats.Percentile(cellMs, 50))
	put("core.cell_p95_ms", stats.Percentile(cellMs, 95))
	put("core.runn_busy_frac", frac(cells, float64(l.OpNs)*float64(procs)))
	put("core.tracing_overhead_frac", frac(total(rb.OpWallS)*refSlowdown(ra), total(ra.OpWallS)*refSlowdown(rb))-1)
	put("trace.records", float64(c.Records))
	put("trace.flows", float64(c.Flows))
	put("client.units", float64(c.Units))
	put("client.upload_bytes", float64(c.UploadBytes))
	put("client.dedup_skipped_bytes", float64(c.DedupSkipped))
	put("tcpsim.connections", float64(c.Conns))
	put("dedup.puts", float64(c.Puts))
	put("dedup.hits", float64(c.Hits))
	put("dedup.hit_ratio", frac(float64(c.Hits), float64(c.Puts+c.Hits)))
	put("core.fleet_sessions", float64(c.FleetSessions))
	put("core.fleet_chunks", float64(c.FleetChunks))
	put("runtime.alloc_kb_per_op", ra.Runtime.AllocKBPerOp)
	put("runtime.mallocs_per_op", ra.Runtime.MallocsPerOp)
	put("runtime.gc_cycles_per_op", ra.Runtime.GCCyclesPerOp)
	put("runtime.gc_cpu_frac", ra.Runtime.GCCPUFrac)
	for _, cl := range cpuLayers {
		put(cl.metric, shares[cl.metric])
	}
	return m
}
