// Package core implements the paper's contribution: the methodology
// and benchmarking tool for personal cloud storage services.
//
// It assembles the testbed (Sect. 2), runs the capability checks
// (Sect. 4), the performance benchmarks (Sect. 5) and the architecture
// discovery (Sect. 2.1/3.2), deriving every metric exclusively from
// the packet trace — the same information boundary the paper's passive
// sniffer had. Each figure and table of the paper maps to a function
// here.
package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whois"
	"repro/internal/workload"
)

// TwenteCoord is the testbed location: the University of Twente
// campus, Enschede (Sect. 2.4).
var TwenteCoord = geo.Coord{Lat: 52.24, Lon: 6.85}

// Testbed is one fully assembled measurement setup for one service:
// the synthetic Internet, the service deployment, the test computer,
// the client under test, and the packet trace. It has two halves. The
// static half — server hosts, their addresses and the base RTTs from
// the test computer's vantage (netem.Topology), DNS policies and PTR
// records (dnssim.Zone), whois, the deployment's hosts and names — draws
// no random numbers; a campaign builds it once per cell and every
// repetition shares it read-only. The per-run half is seeded per
// repetition: clock, network RNG, jitter and loss (netem.Network), DNS
// rotation (dnssim.System), a fresh chunk store (cloud.Deployment.Fresh),
// the test computer, the client, the folder and the trace. Server-side
// state (the dedup store) and client state therefore start clean every
// repetition, exactly as the paper resets its test accounts.
//
// The trace is a Streamer: it folds packets into the registered
// benchmark window at record time and discards them, capping
// per-repetition memory at O(flows). A study that walks individual
// packets (the idle timeline, the protocol report, the chunking and
// bundling detectors, cmd/tracedump) registers a recorder on it
// (trace.Streamer.AddRecorder), a Capture of the trace from the instant
// it reads from.
type Testbed struct {
	Seed    int64
	Clock   *sim.Clock
	Sched   *sim.Scheduler
	Net     *netem.Network
	DNS     *dnssim.System
	Whois   *whois.Registry
	Stream  *trace.Streamer // the trace; windows and recorders register on it
	Deploy  *cloud.Deployment
	Client  *client.Client
	Folder  *workload.Folder
	RNG     *sim.RNG
	Profile client.Profile

	// win is the registered benchmark window.
	win *trace.StreamWindow
}

// NewTestbed builds a testbed for one of the five studied services.
// Jitter makes RTT samples vary around their geographic base value,
// giving the 24 repetitions realistic dispersion; pass jitter=0 for
// exact analytic assertions in tests.
func NewTestbed(p client.Profile, seed int64, jitter float64) *Testbed {
	return NewTestbedFor(p, cloud.SpecFor(p.Service), seed, jitter)
}

// NewTestbedFor builds a testbed for an arbitrary profile/deployment
// pair — the extension hook for benchmarking services beyond the five
// in the paper ("to extend the number of tested services"). It is a
// world built for the campus vantage, then one run on it.
func NewTestbedFor(p client.Profile, spec cloud.Spec, seed int64, jitter float64) *Testbed {
	mustPath(0, jitter)
	host := campusHost()
	return newWorld(spec, host.Coord).testbed(p, host, sim.NewRNG(seed), jitter)
}

// campusHost is the paper's test computer: the University of Twente
// campus network.
func campusHost() *netem.Host {
	return &netem.Host{
		Name:  "testpc.utwente.sim",
		Addr:  "130.89.0.1",
		Coord: TwenteCoord,
		// 1 Gb/s campus Ethernet: "the network is not a
		// bottleneck" — leave the client side uncapped.
	}
}

// mustPath panics unless loss and jitter are valid path impairments.
func mustPath(loss, jitter float64) {
	if err := netem.CheckPath(loss, jitter); err != nil {
		panic("core: " + err.Error())
	}
}

// world is the static half of a testbed (see Testbed): one service's
// deployment on a frozen topology and DNS zone, with base RTTs from
// one vantage. It is read-only once built, so every repetition and
// worker of a cell shares it.
type world struct {
	topo   *netem.Topology
	zone   *dnssim.Zone
	whois  *whois.Registry
	deploy *cloud.Deployment // no chunk store: each run gets a fresh one
}

// newWorld builds and freezes the static half for spec, seen from
// vantage.
func newWorld(spec cloud.Spec, vantage geo.Coord) *world {
	w := &world{topo: netem.NewTopology(), zone: dnssim.NewZone(), whois: whois.NewRegistry()}
	w.deploy = cloud.Build(w.topo.NewNetwork(nil, nil), w.zone.NewSystem(nil), w.whois, spec)
	w.deploy.Store = nil
	w.topo.Freeze(vantage)
	w.zone.Freeze()
	return w
}

// testbed seeds one run on the world. Every draw is per run and in a
// fixed order — network, DNS, client, workload forks of rng — so a run
// is a pure function of its seed, whichever world instance it shares.
func (w *world) testbed(p client.Profile, host *netem.Host, rng *sim.RNG, jitter float64) *Testbed {
	clock := sim.NewClock()
	n := w.topo.NewNetwork(clock, rng.Fork(1))
	n.JitterFraction = jitter
	dns := w.zone.NewSystem(rng.Fork(2))
	deploy := w.deploy.Fresh()
	h := n.AddHost(host)
	tb := &Testbed{
		Seed: rng.Seed(), Clock: clock, Sched: sim.NewScheduler(clock),
		Net: n, DNS: dns, Whois: w.whois, Stream: trace.NewStreamer(), Deploy: deploy,
		Folder: workload.NewFolder(), RNG: rng.Fork(4),
		Profile: p,
	}
	tb.Client = client.New(client.Config{
		Profile: p, Deploy: deploy, Net: n, Host: h,
		Cap: tb.Stream, DNS: dns, RNG: rng.Fork(3),
	})
	return tb
}

// Settle logs the client in and lets it idle briefly, so benchmark
// traffic is cleanly separated from login traffic. It returns the
// instant the benchmark may start.
func (tb *Testbed) Settle() time.Time {
	done := tb.Client.Login(tb.Clock.Now())
	tb.Clock.AdvanceTo(done)
	start := done.Add(30 * time.Second)
	tb.Clock.AdvanceTo(start)
	return start
}

// StartWindow registers the benchmark measurement window [t0,
// FarFuture), so that every packet recorded from here on is folded
// into it. It must be called right when the window opens — after
// login/settle traffic, before the workload is materialized. A window
// it replaces is unregistered: benchWindow can no longer reach it, so
// folding more records into it would be wasted work.
func (tb *Testbed) StartWindow(t0 time.Time) {
	if tb.win != nil {
		tb.Stream.RemoveWindow(tb.win)
	}
	tb.win = tb.Stream.AddWindow(t0, trace.FarFuture)
}

// benchWindow returns the registered window, insisting it matches the
// requested start: a repetition has exactly one measurement window,
// registered up front, and reading any other window would silently
// analyze discarded packets.
func (tb *Testbed) benchWindow(t0 time.Time) *trace.StreamWindow {
	if tb.win == nil {
		panic("core: testbed measured without StartWindow")
	}
	if !tb.win.From().Equal(t0) {
		panic("core: testbed measured at a window start it never registered")
	}
	return tb.win
}

// AnalyzeWindow computes every scalar trace metric over the selected
// flows within the benchmark window [t0, FarFuture): a read of the
// accumulators folded while recording.
func (tb *Testbed) AnalyzeWindow(t0 time.Time, f trace.FlowFilter) trace.Analysis {
	return tb.benchWindow(t0).Analyze(f)
}

// StorageFilter classifies flows for measurement. Services that split
// control from storage are classified by DNS name (trivially, as the
// paper notes). Wuala and the edge-terminated Google Drive use one
// name for everything, so the filter falls back to the paper's
// heuristic: storage flows are the connections opened after the
// workload started (connection sequences) or carrying substantial
// payload within the window (flow sizes).
func (tb *Testbed) StorageFilter(winStart time.Time) trace.FlowFilter {
	storageName := tb.Deploy.DNSName(cloud.Storage)
	controlName := tb.Deploy.DNSName(cloud.Control)
	if tb.Deploy.Spec.EdgeNetwork {
		storageName = tb.Deploy.DNSName(cloud.Edge)
		controlName = storageName
	}
	if storageName != controlName {
		return func(f trace.FlowInfo) bool { return f.ServerName == storageName }
	}
	// Same-name service: flow sizes and connection sequences.
	bytes := tb.benchWindow(winStart).FlowBytes()
	return func(f trace.FlowInfo) bool {
		if f.ServerName != storageName {
			return false
		}
		if !f.OpenedAt.Before(winStart) {
			return true
		}
		return int(f.ID) < len(bytes) && bytes[f.ID] >= 30_000
	}
}
