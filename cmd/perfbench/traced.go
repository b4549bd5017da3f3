package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whois"
	"repro/internal/workload"
)

// The traced run rebuilds every campaign cell from the public
// constructors that core's testbed assembly calls, in the same order and
// with the same seeds, so it can time each layer from outside the
// simulation packages. The seed derivations and host literals below
// mirror unexported ones in internal/core; the traced run asserts that
// its results digest exactly like the public API's, so any drift fails
// loudly instead of measuring a different workload.

// layer is one timed layer of a campaign cell.
type layer int

const (
	lTestbed layer = iota
	lLogin
	lMaterialize
	lSync
	lRecord
	lMeasure
	nLayers
)

// layerNames are the span names and metric prefixes of the layers.
var layerNames = [nLayers]string{
	"core.testbed", "client.login", "workload.materialize", "client.sync", "trace.record", "core.measure",
}

// counts are the exact work counts of the first traced op.
type counts struct {
	Records, Flows             int64
	Units, UploadBytes         int64
	DedupSkipped, Conns        int64
	Puts, Hits                 int64
	FleetSessions, FleetChunks int64
}

func (c *counts) add(o counts) {
	c.Records += o.Records
	c.Flows += o.Flows
	c.Units += o.Units
	c.UploadBytes += o.UploadBytes
	c.DedupSkipped += o.DedupSkipped
	c.Conns += o.Conns
	c.Puts += o.Puts
	c.Hits += o.Hits
	c.FleetSessions += o.FleetSessions
	c.FleetChunks += o.FleetChunks
}

// event is one Chrome trace-event "complete" span.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the tracer started
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// layerReport is what a traced child hands its parent.
type layerReport struct {
	LayerNs     [nLayers]int64 `json:"layer_ns"` // self time summed over cells
	CellNs      []int64        `json:"cell_ns"`  // every cell's wall time
	OpNs        int64          `json:"op_ns"`    // summed op wall time
	SummarizeNs int64          `json:"summarize_ns"`
	Counts      counts         `json:"counts"`
}

// tracer collects the spans, layer times and counts of a traced run.
// Cells run concurrently on core.RunN's workers; each cell accumulates
// privately and merges once, under mu, when it finishes.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	counting bool  // counts are taken on the first op only
	free     []int // span track ids of no running cell
	slots    int   // span track ids handed out so far
	nextID   int
	rep      layerReport
	events   []event
	problems []string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counting: true}
}

// op runs one traced op and adds its wall time.
func (tr *tracer) op(fn func() any) any {
	start := time.Now()
	v := fn()
	tr.mu.Lock()
	tr.rep.OpNs += int64(time.Since(start))
	tr.counting = false
	tr.mu.Unlock()
	return v
}

// summarize times the fold of an op's repetitions into summaries.
func (tr *tracer) summarize(fn func()) {
	start := time.Now()
	fn()
	tr.mu.Lock()
	tr.rep.SummarizeNs += int64(time.Since(start))
	tr.mu.Unlock()
}

// cell is one campaign cell (or fleet day) in flight.
type cell struct {
	tr       *tracer
	name     string
	id       int
	slot     int
	counting bool
	start    time.Time
	sink     *timingSink
	layerNs  [nLayers]int64
	counts   counts
	events   []event
	probs    []string
}

// startCell opens a cell on the lowest free span track, so that cells
// running at once never share a track. It never blocks: the cells run
// as core.RunN schedules them.
func (tr *tracer) startCell(name string) *cell {
	tr.mu.Lock()
	if len(tr.free) == 0 {
		tr.slots++
		tr.free = append(tr.free, tr.slots)
	}
	slices.Sort(tr.free)
	slot := tr.free[0]
	tr.free = tr.free[1:]
	c := &cell{tr: tr, name: name, id: tr.nextID, slot: slot, counting: tr.counting}
	tr.nextID++
	tr.mu.Unlock()
	c.start = time.Now()
	return c
}

func (c *cell) recordNs() int64 {
	if c.sink == nil {
		return 0
	}
	return c.sink.ns
}

// timed runs fn as one span of layer l. Time the trace sink spent inside
// fn is the trace.record layer's, not l's, so l gets the self time.
func (c *cell) timed(l layer, fn func()) {
	rec0 := c.recordNs()
	start := time.Now()
	fn()
	d := time.Since(start)
	rec := c.recordNs() - rec0
	c.layerNs[l] += int64(d) - rec
	c.events = append(c.events, c.event(layerNames[l], start, d, map[string]any{
		"cell": c.id, "self_us": float64(int64(d)-rec) / 1e3, "record_us": float64(rec) / 1e3,
	}))
}

func (c *cell) event(name string, start time.Time, d time.Duration, args map[string]any) event {
	return event{
		Name: name, Ph: "X", PID: 1, TID: c.slot, Args: args,
		TS:  float64(start.Sub(c.tr.epoch)) / 1e3,
		Dur: float64(d) / 1e3,
	}
}

// finish closes the cell and merges it into the tracer.
func (c *cell) finish() {
	d := time.Since(c.start)
	if c.sink != nil {
		c.layerNs[lRecord] = c.sink.ns
		c.counts.Records, c.counts.Flows = c.sink.records, c.sink.flows
	}
	c.events = append(c.events, c.event(c.name, c.start, d, map[string]any{"cell": c.id}))
	tr := c.tr
	tr.mu.Lock()
	for l, ns := range c.layerNs {
		tr.rep.LayerNs[l] += ns
	}
	tr.rep.CellNs = append(tr.rep.CellNs, int64(d))
	if c.counting {
		tr.rep.Counts.add(c.counts)
	}
	tr.events = append(tr.events, c.events...)
	tr.problems = append(tr.problems, c.probs...)
	tr.free = append(tr.free, c.slot)
	tr.mu.Unlock()
}

// takeProblems returns and clears the invariant violations the cells of
// the current op reported.
func (tr *tracer) takeProblems() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	p := tr.problems
	tr.problems = nil
	return p
}

// writeSpans writes the spans as a Chrome trace-event file.
func (tr *tracer) writeSpans(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{tr.events, "ms"})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// timingSink is a trace.Sink that times and counts every call into the
// sink it wraps. Each cell has its own, like its own Streamer.
type timingSink struct {
	inner          trace.Sink
	ns             int64
	records, flows int64
}

func (s *timingSink) OpenFlow(key trace.FlowKey, serverName string, at time.Time) trace.FlowID {
	start := time.Now()
	id := s.inner.OpenFlow(key, serverName, at)
	s.ns += int64(time.Since(start))
	s.flows++
	return id
}

func (s *timingSink) Record(p trace.Packet) {
	start := time.Now()
	s.inner.Record(p)
	s.ns += int64(time.Since(start))
	s.records++
}

// Test computers, as core's campaign engine places them.
var (
	campusHost = netem.Host{Name: "testpc.utwente.sim", Addr: "130.89.0.1", Coord: core.TwenteCoord}
	twenteHost = netem.Host{Name: "testpc." + core.Twente.Name + ".sim", Addr: "198.51.100.1", Coord: core.Twente.Coord}
)

// Seed derivations of core's campaign layers: campaignSeed per
// repetition, fig6Seed per workload, lossSweepSeed per loss rate (of the
// sweep's only service) and Fig4DeltaSeries' stride per file size.
func repSeed(base int64, rep int) int64          { return base + int64(rep)*7919 }
func fig6CellSeed(seed int64, wi, rep int) int64 { return repSeed(seed+int64(wi)*100003, rep) }
func lossCellSeed(seed int64, ri, rep int) int64 { return repSeed(seed+int64(ri)*10007, rep) }
func fig4CellSeed(seed int64, i int) int64       { return seed + int64(i)*101 }

// testbed assembles a streaming testbed from public constructors, with
// the client recording through a timing sink.
func (c *cell) testbed(p client.Profile, host netem.Host, seed int64, jitter float64) *core.Testbed {
	var tb *core.Testbed
	c.timed(lTestbed, func() {
		rng := sim.NewRNG(seed)
		clock := sim.NewClock()
		n := netem.New(clock, rng.Fork(1))
		n.JitterFraction = jitter
		dns := dnssim.NewSystem(rng.Fork(2))
		reg := whois.NewRegistry()
		deploy := cloud.Build(n, dns, reg, cloud.SpecFor(p.Service))
		h := n.AddHost(&host)
		stream := trace.NewStreamer()
		c.sink = &timingSink{inner: stream}
		tb = &core.Testbed{
			Seed: seed, Clock: clock, Sched: sim.NewScheduler(clock),
			Net: n, DNS: dns, Whois: reg, Stream: stream, Deploy: deploy,
			Folder: workload.NewFolder(), RNG: rng.Fork(4), Profile: p,
		}
		tb.Client = client.New(client.Config{
			Profile: p, Deploy: deploy, Net: n, Host: h,
			Cap: c.sink, DNS: dns, RNG: rng.Fork(3),
		})
	})
	return tb
}

func (c *cell) login(tb *core.Testbed) time.Time {
	var start time.Time
	c.timed(lLogin, func() { start = tb.Settle() })
	return start
}

func (c *cell) sync(tb *core.Testbed, since time.Time) client.SyncResult {
	var res client.SyncResult
	c.timed(lSync, func() { res = tb.Client.SyncChanges(tb.Folder, since) })
	for _, p := range res.Plans {
		c.counts.Units += int64(len(p.Units))
	}
	c.counts.UploadBytes += res.UploadBytes()
	c.counts.DedupSkipped += res.DedupSkipped()
	return res
}

// finishTestbed takes the server-side store counters and closes the cell.
func (c *cell) finishTestbed(tb *core.Testbed) {
	c.counts.Puts, c.counts.Hits = tb.Deploy.Store.Puts(), tb.Deploy.Store.Hits()
	c.finish()
}

// syncCell is one repetition of core.RunSyncLossy (loss 0 on the campus
// host is core.RunSync), rebuilt.
func (tr *tracer) syncCell(p client.Profile, host netem.Host, batch workload.Batch, seed int64, loss float64) core.Metrics {
	c := tr.startCell("cell")
	tb := c.testbed(p, host, seed, core.DefaultJitter)
	tb.Net.LossRate = loss
	start := c.login(tb)
	t0 := tb.Clock.Now()
	c.timed(lMeasure, func() { tb.StartWindow(t0) })
	c.timed(lMaterialize, func() { batch.Materialize(tb.Folder, tb.RNG, t0, "bench") })
	res := c.sync(tb, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	var m core.Metrics
	c.timed(lMeasure, func() { m = core.MeasureWindow(tb, t0, batch.Total()) })
	c.counts.Conns = int64(m.Connections)
	c.probs = checkMetrics(fmt.Sprintf("%s seed %d", p.Service, seed), m)
	c.finishTestbed(tb)
	return m
}

func tracedFig6(sz size, seed int64, _ any, tr *tracer) any {
	return tr.op(func() any {
		profiles := client.Profiles()
		batches := fig6Batches()
		reps := sz.reps
		perSvc := len(batches) * reps
		runs := core.RunN(len(profiles)*perSvc, core.CampaignWorkers, func(i int) core.Metrics {
			si, rest := i/perSvc, i%perSvc
			wi, rep := rest/reps, rest%reps
			return tr.syncCell(profiles[si], campusHost, batches[wi], fig6CellSeed(seed, wi, rep), 0)
		})
		var out []core.Fig6Result
		tr.summarize(func() {
			for si, p := range profiles {
				r := core.Fig6Result{Service: p.Service, Workloads: batches}
				for wi := range batches {
					lo := si*perSvc + wi*reps
					r.Summaries = append(r.Summaries, core.Summarize(runs[lo:lo+reps]))
				}
				out = append(out, r)
			}
		})
		return out
	})
}

func tracedLoss(sz size, seed int64, _ any, tr *tracer) any {
	return tr.op(func() any {
		p := client.CloudDrive()
		reps := sz.reps
		runs := core.RunN(len(lossRates)*reps, core.CampaignWorkers, func(i int) core.Metrics {
			ri, rep := i/reps, i%reps
			return tr.syncCell(p, twenteHost, lossBatch, lossCellSeed(seed, ri, rep), lossRates[ri])
		})
		var out []core.LossCell
		tr.summarize(func() {
			for ri, rate := range lossRates {
				out = append(out, core.LossCell{
					Service: p.Service, LossRate: rate, Workload: lossBatch,
					Summary: core.Summarize(runs[ri*reps : (ri+1)*reps]),
				})
			}
		})
		return out
	})
}

// deltaCell is one point of core.Fig4DeltaSeries, rebuilt: sync a base
// file, edit it 10 s later, and measure the second upload.
func (tr *tracer) deltaCell(p client.Profile, pt fig4Point, seed int64) core.VolumePoint {
	c := tr.startCell("cell")
	tb := c.testbed(p, campusHost, fig4CellSeed(seed, pt.index), 0)
	start := c.login(tb)

	t0 := tb.Clock.Now()
	c.timed(lMaterialize, func() {
		tb.Folder.CreateLazy(t0, "target.bin", workload.Describe(tb.RNG.Fork(1), workload.Binary, pt.size))
	})
	res := c.sync(tb, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))

	t1 := tb.Clock.Now()
	c.timed(lMeasure, func() { tb.StartWindow(t1) })
	c.timed(lMaterialize, func() {
		chunk := workload.Generate(tb.RNG.Fork(2), workload.Binary, fig4Added)
		switch fig4Mods[pt.mod] {
		case core.ModAppend:
			tb.Folder.Append(t1, "target.bin", chunk)
		case core.ModPrepend:
			tb.Folder.InsertAt(t1, "target.bin", 0, chunk)
		default:
			tb.Folder.InsertAt(t1, "target.bin", tb.RNG.Int63n(pt.size), chunk)
		}
	})
	res = c.sync(tb, t1.Add(-time.Millisecond))
	tb.Clock.AdvanceTo(res.Done)

	var up int64
	c.timed(lMeasure, func() {
		up = tb.AnalyzeWindow(t1, tb.StorageFilter(t1)).WireUp
		c.counts.Conns = int64(tb.AnalyzeWindow(t1, trace.AllFlows).Connections)
	})
	vp := core.VolumePoint{FileSize: pt.size, Upload: up}
	c.probs = checkVolume(fmt.Sprintf("delta_edit %s %s", p.Service, fig4Mods[pt.mod]), vp, pt.size, fig4Added)
	c.finishTestbed(tb)
	return vp
}

// tracedDelta schedules its cells as runDelta does: per modification, a
// fan-out over services, each running its Fig4DeltaSeries fan-out over
// sizes.
func tracedDelta(sz size, seed int64, _ any, tr *tracer) any {
	return tr.op(func() any {
		profiles := client.Profiles()
		var out [][]core.VolumePoint
		for mi, mod := range fig4Mods {
			sizes := fig4Sizes(sz, mod)
			out = append(out, core.RunN(len(profiles), 0, func(si int) []core.VolumePoint {
				return core.RunN(len(sizes), core.CampaignWorkers, func(i int) core.VolumePoint {
					return tr.deltaCell(profiles[si], fig4Point{mod: mi, index: i, size: sizes[i]}, seed)
				})
			})...)
		}
		return out
	})
}
