package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for perfbench as the child
// process, so the tests drive the real parent/child protocol.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "cmd/perfbench" {
		t.Errorf("paths = %q", f.Paths)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s), code has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// toyOptions run one toy-size op per child.
func toyOptions(t *testing.T, name string) options {
	t.Helper()
	return options{workload: name, seed: 42, procs: min(runtime.NumCPU(), 4), traceDir: t.TempDir(), toy: true, ops: 1}
}

// runWorkload runs one workload through the parent/child protocol, the
// test binary standing in for perfbench.
func runWorkload(t *testing.T, o options) result {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := measureWorkload
	if o.trace == 1 {
		run = traceWorkload
	}
	var out bytes.Buffer
	r, err := run(exe, o, o.workload, &out)
	if err != nil {
		t.Fatalf("%s (trace %d): %v\n%s", o.workload, o.trace, err, out.String())
	}
	return r
}

func assertMetrics(t *testing.T, r result, want []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v, ok %v; want unit %s", d.name, m, ok, d.unit)
		}
	}
}

// TestToyRuns runs every workload at toy size, one op per process,
// untraced and traced, through the parent/child protocol.
func TestToyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := toyOptions(t, w.name)
			r := runWorkload(t, o)
			if !r.Correct || r.Attempted != 1 || r.Failed != 0 {
				t.Errorf("untraced: correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
			}
			assertMetrics(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want positive", d.name, r.Metrics[d.name].Value)
				}
			}

			o.trace = 1
			r = runWorkload(t, o)
			if !r.Correct || r.Failed != 0 {
				t.Errorf("traced: correct %v, failed %d", r.Correct, r.Failed)
			}
			assertMetrics(t, r, perLayer)
		})
	}
}

// TestDigestIndependentOfProcs pins the determinism the digests rely
// on: an op digests identically at GOMAXPROCS 1 and 2, and the traced
// run's rebuilt cells digest like the public API.
func TestDigestIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var got []string
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, v := range []any{w.run(toySize, 7, w.newInput(toySize)), w.traced(toySize, 7, w.newInput(toySize), newTracer())} {
					d, err := digest(v)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, d)
				}
			}
			for _, d := range got[1:] {
				if d != got[0] {
					t.Fatalf("digests differ: %v", got)
				}
			}
		})
	}
}

func TestCheckRejectsTamperedResults(t *testing.T) {
	tamper := map[string]func(v any) any{
		"fig6": func(v any) any {
			v.([]core.Fig6Result)[1].Summaries[2].MeanCompletion = 0
			return v
		},
		"delta_edit": func(v any) any {
			v.([][]core.VolumePoint)[3][1].Upload = 0
			return v
		},
		"clouddrive_loss": func(v any) any {
			s := &v.([]core.LossCell)[2].Summary
			s.MeanStorageUp = s.MeanTotalTraffic + 1
			return v
		},
		"fleet_day": func(v any) any {
			o := v.(fleetOutcome)
			o.Result.WireBytes++
			return o
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			v := w.run(toySize, 3, w.newInput(toySize))
			if p := w.check(toySize, v); len(p) > 0 {
				t.Fatalf("untampered result rejected: %v", p)
			}
			if p := w.check(toySize, tamper[w.name](v)); len(p) == 0 {
				t.Fatal("tampered result accepted")
			}
		})
	}
	if p := checkMetrics("cell", core.Metrics{Completion: 1, StorageUp: 2, TotalTraffic: 1, Connections: 1}); len(p) != 1 {
		t.Errorf("checkMetrics = %v, want one violation", p)
	}
	o := runFleet(toySize, 3, fleetStore(toySize), nil)
	o.Puts++
	if p := checkFleet(toySize, o); len(p) != 1 {
		t.Errorf("checkFleet with puts != unique chunks = %v, want one violation", p)
	}
}

func TestCommittedDigestMismatchFailsEveryOp(t *testing.T) {
	var f digestFile
	if err := json.Unmarshal(committedDigests, &f); err != nil {
		t.Fatal(err)
	}
	o := options{seed: digestSeed}
	for _, w := range workloads {
		want := f.Digests[w.name]
		if len(want) == 0 {
			t.Fatalf("%s: no committed digests", w.name)
		}
		rep := childReport{Ops: 2, Digests: []string{want[0], "0"}}
		if len(want) > 1 {
			rep.Digests[1] = want[1]
		}
		if failed, err := checkDigests(o, w.name, rep); err != nil || failed != 0 {
			t.Errorf("%s: matching digests failed %d ops (%v)", w.name, failed, err)
		}
		rep.Digests[0] = "0"
		if failed, err := checkDigests(o, w.name, rep); err != nil || failed != rep.Ops {
			t.Errorf("%s: mismatched digest failed %d of %d ops (%v)", w.name, failed, rep.Ops, err)
		}
	}
}

func TestCPUSharesFromTraces(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 || samples[1].frames[1] != "repro/internal/dedup.(*shard).claimLocked" {
		t.Fatalf("parsed %d samples, second %v", len(samples), samples[1].frames)
	}
	want := map[string]float64{
		"compressor.cpu_frac":          0.4,
		"dedup.cpu_frac":               0.1,
		"core.fleet_claim_cpu_frac":    0.15,
		"core.fleet_generate_cpu_frac": 0.15,
		"core.fleet_resolve_cpu_frac":  0.1,
		"core.fleet_reduce_cpu_frac":   0.1,
	}
	got := cpuShares(samples)
	if len(got) != len(cpuLayers) {
		t.Errorf("%d shares, want one per layer (%d)", len(got), len(cpuLayers))
	}
	for _, l := range cpuLayers {
		if math.Abs(got[l.metric]-want[l.metric]) > 1e-9 {
			t.Errorf("%s = %v, want %v", l.metric, got[l.metric], want[l.metric])
		}
	}
}
