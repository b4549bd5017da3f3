package core

import (
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/trace"
)

// ProtocolReport regenerates the Sect. 3.1 findings for one service —
// which channels run over plain HTTP, whether control and storage are
// split across servers, how many servers login touches, and the
// polling cadence — all inferred from the trace.
type ProtocolReport struct {
	Service string

	// UsesPlainHTTP reports any port-80 flow (Dropbox notifications,
	// Wuala storage operations).
	UsesPlainHTTP bool
	// PlainHTTPNames lists the server names seen on port 80.
	PlainHTTPNames []string

	// SplitControlStorage is true when control and storage traffic
	// go to different DNS names ("their identification is trivial").
	SplitControlStorage bool

	// LoginServers is the number of distinct server addresses
	// contacted during the login phase (13 for SkyDrive).
	LoginServers int
	LoginBytes   int64

	// PollInterval is the estimated keep-alive cadence while idle,
	// recovered from gaps between activity clusters in the trace.
	PollInterval time.Duration
	// PollConnPerPoll is true when every poll opens a fresh
	// connection (Cloud Drive).
	PollConnPerPoll bool
	// IdleRateBps is the background traffic rate.
	IdleRateBps float64
}

// AnalyzeProtocols drives a client through login and a 16-minute idle
// period and infers the Sect. 3.1 protocol behaviour from the trace.
// It reads the recorder of idleTrace: the login/idle windows are only
// known after the run, and activityClusterStarts walks individual
// packets.
func AnalyzeProtocols(p client.Profile, seed int64) ProtocolReport {
	rec, t0, loginDone, end := idleTrace(p, seed)
	r := ProtocolReport{Service: p.Service}

	// Plain-HTTP channels and name split.
	names := map[string]bool{}
	plain := map[string]bool{}
	for _, f := range rec.Flows() {
		names[f.ServerName] = true
		if f.Key.ServerPort == 80 {
			plain[f.ServerName] = true
		}
	}
	for n := range plain {
		r.PlainHTTPNames = append(r.PlainHTTPNames, n)
	}
	sort.Strings(r.PlainHTTPNames)
	r.UsesPlainHTTP = len(plain) > 0
	r.SplitControlStorage = len(names) > 1

	// Login phase: distinct server addresses and volume.
	loginWin := rec.Window(t0, loginDone)
	addrs := map[string]bool{}
	active := loginWin.FlowsWithTraffic() // []bool indexed by FlowID
	for _, f := range loginWin.Flows() {
		if active[f.ID] {
			addrs[f.Key.ServerAddr] = true
		}
	}
	r.LoginServers = len(addrs)
	r.LoginBytes = loginWin.Analyze(trace.AllFlows).TotalWire

	// Idle phase: cluster activity into polls and estimate cadence.
	idleWin := rec.Window(loginDone.Add(2*time.Second), end)
	starts := activityClusterStarts(idleWin, 2*time.Second)
	r.PollInterval = medianGap(starts)
	idle := idleWin.Analyze(trace.AllFlows)
	r.IdleRateBps = float64(idle.TotalWire*8) / end.Sub(loginDone).Seconds()

	// Per-poll connections: new SYNs during idle track poll count.
	r.PollConnPerPoll = len(starts) > 3 && idle.Connections >= len(starts)-1
	return r
}

// activityClusterStarts groups trace packets into bursts separated by
// at least `quiet` and returns each burst's start instant. It walks
// the span-expanded trace so a long transmission counts as continuous
// activity, not a single instant followed by silence.
func activityClusterStarts(cap *trace.Capture, quiet time.Duration) []time.Time {
	var starts []time.Time
	var last time.Time
	for i, p := range cap.ExpandedPackets() {
		if i == 0 || p.Time.Sub(last) >= quiet {
			starts = append(starts, p.Time)
		}
		last = p.Time
	}
	return starts
}

// medianGap returns the median interval between consecutive instants.
func medianGap(ts []time.Time) time.Duration {
	if len(ts) < 2 {
		return 0
	}
	gaps := make([]time.Duration, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i].Sub(ts[i-1]))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}
