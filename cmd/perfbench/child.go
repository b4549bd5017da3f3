package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// A child is the one load-generating process of a run. Its mode is
// "probe" (set up, report the set-up time, exit), "run" (ops through the
// public API) or "traced" (ops from rebuilt cells under the CPU
// profiler).
type childOptions struct {
	mode     string
	workload string
	seed     int64
	seconds  float64
	ops      int
	toy      bool
	dir      string // traced mode: where spans and the CPU profile go
	t0       int64  // Unix ns at which the parent started this process
}

// childReport is the one JSON line a child prints for its parent.
type childReport struct {
	SetupS    float64  `json:"setup_s"`
	Procs     int      `json:"procs"`
	NumCPU    int      `json:"num_cpu"`
	GoVersion string   `json:"go_version"`
	Ops       int      `json:"ops"`
	ItemsOp   int      `json:"items_per_op"`
	Digests   []string `json:"digests"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// Per op: wall time, CPU time of the process, and peak resident set.
	OpWallS []float64 `json:"op_wall_s"`
	OpCPUS  []float64 `json:"op_cpu_s"`
	OpRSSMB []float64 `json:"op_rss_mb"`
	// RefS are the reference kernel's times between ops (calibrate.go).
	RefS []float64 `json:"ref_s"`
	// ProbeS[i] is the set-up time of a probe started right after
	// calibration i, so that probes sample the machine over the whole
	// run, each next to a kernel time.
	ProbeS []float64 `json:"probe_s,omitempty"`

	Runtime runtimeDelta `json:"runtime"`
	Layers  *layerReport `json:"layers,omitempty"`
}

func (o childOptions) args() []string {
	return []string{
		"child",
		"-mode", o.mode,
		"-workload", o.workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-ops", fmt.Sprint(o.ops),
		"-toy=" + fmt.Sprint(o.toy),
		"-dir", o.dir,
		"-t0", fmt.Sprint(o.t0),
	}
}

func parseChild(args []string) (childOptions, error) {
	var o childOptions
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.StringVar(&o.mode, "mode", "run", "probe, run or traced")
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 42, "seed of op 0")
	fs.Float64Var(&o.seconds, "seconds", 1, "closed-loop duration")
	fs.IntVar(&o.ops, "ops", 0, "run exactly this many ops (0 = time-based)")
	fs.BoolVar(&o.toy, "toy", false, "toy-size ops")
	fs.StringVar(&o.dir, "dir", "", "traced-mode output directory")
	fs.Int64Var(&o.t0, "t0", 0, "parent's exec instant, Unix ns")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.mode != "probe" && o.mode != "run" && o.mode != "traced" {
		return o, fmt.Errorf("unknown child mode %q", o.mode)
	}
	return o, nil
}

// runChild sets up, then runs the closed loop: op k on seed+k and a
// freshly built input, until the duration has passed (after at least one
// op) or the op count is reached.
func runChild(o childOptions) (childReport, error) {
	rep := childReport{Procs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return rep, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSize
	if o.toy {
		sz = toySize
	}
	rep.ItemsOp = w.items(sz)
	var tr *tracer
	if o.mode == "traced" {
		tr = newTracer()
	}

	// The first op starts here, once its input is built; everything
	// before is set-up.
	in := w.newInput(sz)
	first := time.Now()
	if o.t0 > 0 {
		rep.SetupS = first.Sub(time.Unix(0, o.t0)).Seconds()
	}
	if o.mode == "probe" {
		return rep, nil
	}

	if tr != nil {
		f, err := os.Create(filepath.Join(o.dir, "cpu.pprof"))
		if err != nil {
			return rep, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return rep, err
		}
		defer pprof.StopCPUProfile()
	}
	ref := newRefKernel(rep.Procs)
	var lastRef time.Time
	var rss *rssPeak
	harness(func() { rss = startRSSPeak(5 * time.Millisecond) })
	defer rss.close()
	var rt runtimeCounters
	for k := 0; ; k++ {
		seed := o.seed + int64(k)
		if k == 0 || time.Since(lastRef) >= refEvery {
			d, err := ref.calibrate()
			if err != nil {
				return rep, err
			}
			rep.RefS = append(rep.RefS, d.Seconds())
			if o.mode == "run" {
				s, err := probe(o, rep.Procs)
				if err != nil {
					return rep, err
				}
				rep.ProbeS = append(rep.ProbeS, s)
			}
			lastRef = time.Now()
		}
		if k > 0 {
			harness(func() { in = w.newInput(sz) })
		}
		rss.take() // the op's peak excludes the calibration and input build before it
		start, cpu0, rt0 := time.Now(), cpuSeconds(), readRuntime()
		var v any
		if tr != nil {
			v = w.traced(sz, seed, in, tr)
		} else {
			v = w.run(sz, seed, in)
		}
		rep.OpWallS = append(rep.OpWallS, time.Since(start).Seconds())
		rep.OpCPUS = append(rep.OpCPUS, cpuSeconds()-cpu0)
		rep.OpRSSMB = append(rep.OpRSSMB, float64(rss.take())/(1<<20))
		rt.add(readRuntime(), rt0)
		in = nil // so that the next calibration's collection frees it

		var problems []string
		harness(func() {
			problems = w.check(sz, v)
			if tr != nil {
				problems = append(problems, tr.takeProblems()...)
			}
			d, err := digest(v)
			if err != nil {
				problems = append(problems, err.Error())
			}
			rep.Digests = append(rep.Digests, d)
		})
		if len(problems) > 0 {
			rep.Failed++
			rep.Problems = append(rep.Problems, problems...)
		}
		rep.Ops++
		if o.ops > 0 && rep.Ops >= o.ops || o.ops <= 0 && time.Since(first).Seconds() >= o.seconds {
			break
		}
	}
	rep.Runtime = rt.perOp(rep.Ops)
	if tr != nil {
		if err := tr.writeSpans(filepath.Join(o.dir, "spans.json")); err != nil {
			return rep, err
		}
		rep.Layers = &tr.rep
	}
	return rep, nil
}

// probe starts this program in probe mode, waits for it and returns its
// set-up time.
func probe(o childOptions, procs int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	o.mode = "probe"
	var rep childReport
	harness(func() { rep, err = spawn(exe, procs, o) })
	return rep.SetupS, err
}

// cpuSeconds is the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssPeak tracks this process's resident set size by polling
// /proc/self/statm, so that each op's peak can be read on its own.
type rssPeak struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSSPeak(every time.Duration) *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.observe()
			}
		}
	}()
	return p
}

func (p *rssPeak) observe() {
	rss := residentBytes()
	for cur := p.peak.Load(); rss > cur && !p.peak.CompareAndSwap(cur, rss); cur = p.peak.Load() {
	}
}

// take returns the peak since the previous take and starts the next
// period at the current size.
func (p *rssPeak) take() int64 {
	p.observe()
	return p.peak.Swap(residentBytes())
}

// close stops the poller and waits for it to exit.
func (p *rssPeak) close() {
	close(p.stop)
	<-p.done
}

// residentBytes is the current resident set size, 0 where /proc is
// unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// runtimeDelta is the allocator and GC work of the ops, per op; the
// collections between ops that calibrate.go forces are left out.
type runtimeDelta struct {
	AllocKBPerOp  float64 `json:"alloc_kb_per_op"`
	MallocsPerOp  float64 `json:"mallocs_per_op"`
	GCCyclesPerOp float64 `json:"gc_cycles_per_op"`
	GCCPUFrac     float64 `json:"gc_cpu_frac"`
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeCounters [5]float64

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out runtimeCounters
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// add accumulates the counters' growth from before to after.
func (c *runtimeCounters) add(after, before runtimeCounters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

func (c runtimeCounters) perOp(ops int) runtimeDelta {
	n := float64(max(ops, 1))
	out := runtimeDelta{AllocKBPerOp: c[0] / 1024 / n, MallocsPerOp: c[1] / n, GCCyclesPerOp: c[2] / n}
	if c[4] > 0 {
		out.GCCPUFrac = c[3] / c[4]
	}
	return out
}
