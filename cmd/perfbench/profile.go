package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers is the one table mapping CPU-profile frames to per-layer
// metrics. A package layer's share is the fraction of profile time whose
// stack has any frame in that package; these layers are reached only
// from inside other layers, so the traced run cannot time them from
// outside. A fleet phase is decided per stack by its leaf-most frame
// that matches a phase prefix, in table order, so a sample belongs to at
// most one phase.
var cpuLayers = []struct {
	metric string
	pkg    string   // package layer: the frame's package path
	fns    []string // fleet phase: function-name prefixes
}{
	{metric: "compressor.cpu_frac", pkg: "repro/internal/compressor"},
	{metric: "chunker.cpu_frac", pkg: "repro/internal/chunker"},
	{metric: "deltaenc.cpu_frac", pkg: "repro/internal/deltaenc"},
	{metric: "cryptobox.cpu_frac", pkg: "repro/internal/cryptobox"},
	{metric: "tcpsim.cpu_frac", pkg: "repro/internal/tcpsim"},
	{metric: "httpsim.cpu_frac", pkg: "repro/internal/httpsim"},
	{metric: "trace.cpu_frac", pkg: "repro/internal/trace"},
	{metric: "dedup.cpu_frac", pkg: "repro/internal/dedup"},
	{metric: "sim.cpu_frac", pkg: "repro/internal/sim"},
	{metric: "workload.cpu_frac", pkg: "repro/internal/workload"},
	// Resolve pass: RunFleet's second fan-out, the resolve sink and the
	// log replay feeding it. Listed before the claim pass, whose prefix
	// covers the rest of the session log.
	{metric: "core.fleet_resolve_cpu_frac", fns: []string{
		"repro/internal/core.(*resolveSink).",
		"repro/internal/core.(*fleetLog).replay",
		"repro/internal/core.newResolveSink",
		"repro/internal/core.RunFleet.func2",
	}},
	// Claim pass: RunFleet's first fan-out, the claim sink and the
	// session log it records.
	{metric: "core.fleet_claim_cpu_frac", fns: []string{
		"repro/internal/core.(*claimSink).",
		"repro/internal/core.(*fleetLog).",
		"repro/internal/core.newFleetLog",
		"repro/internal/core.RunFleet.func1",
	}},
	// Generation: the per-user walk, whichever pass runs it, and the
	// per-class tables it reads.
	{metric: "core.fleet_generate_cpu_frac", fns: []string{
		"repro/internal/core.walkFleetStripe",
		"repro/internal/core.genFleetSession",
		"repro/internal/core.fleetChunkHash",
		"repro/internal/core.FleetConfig.withDefaults",
	}},
	// Reduce: RunFleet's own body, the stripe-order fold.
	{metric: "core.fleet_reduce_cpu_frac", fns: []string{"repro/internal/core.RunFleet"}},
}

// sample is one stack of a pprof -traces listing: its weight in
// nanoseconds and its frames, leaf first.
type sample struct {
	ns     float64
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header,
// then stacks separated by dashed lines, each opening with its weight
// and leaf frame and continuing with one caller per line. Stack lines
// are indented; header lines are not.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	open := false // whether the last sample is still taking frames
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			open = false
		case line == "" || !strings.HasPrefix(sc.Text(), " "):
		case !open:
			weight, frame, _ := strings.Cut(line, " ")
			ns, err := parseWeight(weight)
			if err != nil {
				return nil, err
			}
			out = append(out, sample{ns: ns})
			open = true
			if frame = strings.TrimSpace(frame); frame != "" {
				out[len(out)-1].frames = append(out[len(out)-1].frames, funcName(frame))
			}
		default:
			out[len(out)-1].frames = append(out[len(out)-1].frames, funcName(line))
		}
	}
	return out, sc.Err()
}

// funcName drops pprof's note on an inlined frame.
func funcName(frame string) string { return strings.TrimSuffix(frame, " (inline)") }

// parseWeight parses a pprof sample weight such as "10ms" or "1.25s".
func parseWeight(s string) (float64, error) {
	units := []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"mins", 60e9}, {"hrs", 3600e9}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof weight %q: %w", s, err)
			}
			return v * u.ns, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof weight %q: %w", s, err)
	}
	return v, nil
}

// framePackage returns the import path of a frame's function:
// "repro/internal/core.(*claimSink).Chunk" is in "repro/internal/core".
// Type arguments ("RunN[go.shape.*uint8]") may name other packages, so
// they are cut off first.
func framePackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares aggregates samples into every cpuLayers metric.
func cpuShares(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	var total float64
	for _, s := range samples {
		total += s.ns
	}
	for _, l := range cpuLayers {
		out[l.metric] = 0
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		for _, l := range cpuLayers {
			if l.pkg != "" && hasPackageFrame(s.frames, l.pkg) {
				out[l.metric] += s.ns / total
			}
		}
		if phase := fleetPhase(s.frames); phase != "" {
			out[phase] += s.ns / total
		}
	}
	return out
}

func hasPackageFrame(frames []string, pkg string) bool {
	for _, f := range frames {
		if framePackage(f) == pkg {
			return true
		}
	}
	return false
}

// fleetPhase returns the fleet-phase metric of a stack, or "".
func fleetPhase(frames []string) string {
	for _, f := range frames {
		for _, l := range cpuLayers {
			for _, prefix := range l.fns {
				if strings.HasPrefix(f, prefix) {
					return l.metric
				}
			}
		}
	}
	return ""
}

// profileShares runs `go tool pprof -traces` on a CPU profile and
// aggregates its stacks, leaving out the harness's work between ops.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-tagignore", "perfbench=harness", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	samples, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return cpuShares(samples), nil
}
