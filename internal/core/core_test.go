package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestTestbedSettleSeparatesLogin(t *testing.T) {
	tb := NewTestbed(client.Dropbox(), 1, 0)
	rec := tb.Stream.AddRecorder(sim.Epoch)
	start := tb.Settle()
	// Login traffic exists and ends before the benchmark start.
	login := rec.Window(sim.Epoch, start).Analyze(trace.AllFlows)
	if !login.HasPayload || !login.LastPayload.Before(start) {
		t.Fatal("Settle must end after login")
	}
	// All login traffic predates the benchmark start.
	win := rec.Window(start, trace.FarFuture)
	if win.Len() != 0 {
		t.Fatalf("traffic after settle: %d packets", win.Len())
	}
}

func TestRunSyncProducesMetrics(t *testing.T) {
	m := RunSync(client.Dropbox(), workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, 2, 0)
	if m.Startup <= 0 || m.Completion <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.TotalTraffic < 100_000 {
		t.Fatalf("total traffic %d below content size", m.TotalTraffic)
	}
	if m.Overhead <= 1.0 {
		t.Fatalf("overhead %f must exceed 1 (content + protocol)", m.Overhead)
	}
	if m.GoodputBps <= 0 {
		t.Fatal("no goodput")
	}
}

func TestSummarizeAggregates(t *testing.T) {
	runs := []Metrics{
		{Startup: 2 * time.Second, Completion: 4 * time.Second, TotalTraffic: 100, Overhead: 1.5, Connections: 2, GoodputBps: 10},
		{Startup: 4 * time.Second, Completion: 8 * time.Second, TotalTraffic: 200, Overhead: 2.5, Connections: 4, GoodputBps: 30},
	}
	s := Summarize(runs)
	if s.Reps != 2 || s.MeanStartup != 3*time.Second || s.MeanCompletion != 6*time.Second {
		t.Fatalf("summary: %+v", s)
	}
	if s.MeanOverhead != 2.0 || s.MeanConnections != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if s.StdStartup != time.Second {
		t.Fatalf("std startup = %v", s.StdStartup)
	}
	if s.MedianGoodputBps != 20 { // interpolated median
		t.Fatalf("median goodput = %v, want 20", s.MedianGoodputBps)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Summarize(nil)
}

func TestRunCampaignDispersion(t *testing.T) {
	const reps = 6
	s := runCampaign(client.Wuala(), workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, fixedRule(reps), VarianceReduction{}, 3)
	if s.Reps != reps {
		t.Fatalf("reps = %d, want %d", s.Reps, reps)
	}
	if s.StdCompletion <= 0 {
		t.Fatal("repetitions show no dispersion; jitter is not applied")
	}
}

// ---- Fig. 1 ----

func TestRunIdleMatchesPaperRates(t *testing.T) {
	// Sect. 3.1: Dropbox ~82 b/s, SkyDrive ~32 b/s, Wuala ~60 b/s,
	// Google Drive ~42 b/s, Cloud Drive ~6 kb/s.
	want := map[string][2]float64{
		"dropbox":     {40, 160},
		"skydrive":    {15, 70},
		"wuala":       {30, 120},
		"googledrive": {20, 90},
		"clouddrive":  {3000, 12000},
	}
	for _, p := range client.Profiles() {
		r := RunIdle(p, 4)
		lo, hi := want[p.Service][0], want[p.Service][1]
		if r.IdleRateBps < lo || r.IdleRateBps > hi {
			t.Errorf("%s idle rate = %.0f b/s, want [%.0f, %.0f]", p.Service, r.IdleRateBps, lo, hi)
		}
		if len(r.Timeline) == 0 {
			t.Errorf("%s: empty timeline", p.Service)
		}
		// Timeline must be monotonic.
		for i := 1; i < len(r.Timeline); i++ {
			if r.Timeline[i].Bytes < r.Timeline[i-1].Bytes {
				t.Errorf("%s: non-monotonic cumulative bytes", p.Service)
				break
			}
		}
	}
}

func TestRunIdleLoginVolumes(t *testing.T) {
	sky := RunIdle(client.SkyDrive(), 5)
	drop := RunIdle(client.Dropbox(), 5)
	// "SkyDrive requires about 150 kB in total, 4 times more than
	// others."
	if sky.LoginBytes < 3*drop.LoginBytes {
		t.Fatalf("SkyDrive login %d should be ~4x Dropbox %d", sky.LoginBytes, drop.LoginBytes)
	}
}

// ---- Fig. 3 ----

func TestRunSYNCountFig3(t *testing.T) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	gd := RunSYNCount(client.GoogleDrive(), batch, 6)
	cd := RunSYNCount(client.CloudDrive(), batch, 6)
	// "100 and 400 connections are opened respectively."
	if n := len(gd.Times); n < 95 || n > 115 {
		t.Fatalf("Google Drive SYNs = %d, want ~100", n)
	}
	if n := len(cd.Times); n < 390 || n > 420 {
		t.Fatalf("Cloud Drive SYNs = %d, want ~400", n)
	}
	// "requiring 30 s and 55 s to complete the upload" — shape: both
	// tens of seconds, Cloud Drive slower.
	if gd.Duration < 15*time.Second || gd.Duration > 70*time.Second {
		t.Fatalf("Google Drive duration = %v", gd.Duration)
	}
	if cd.Duration <= gd.Duration {
		t.Fatalf("Cloud Drive (%v) should be slower than Google Drive (%v)", cd.Duration, gd.Duration)
	}
}

// ---- Table 1 ----

func TestDetectCapabilitiesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full capability sweep is long")
	}
	want := map[string]Capabilities{
		"dropbox":     {Chunking: "4 MB", Bundling: true, Compression: "always", Dedup: true, DedupAfterDelete: true, DeltaEncoding: true},
		"skydrive":    {Chunking: "var.", Bundling: false, Compression: "no", Dedup: false, DedupAfterDelete: false, DeltaEncoding: false},
		"wuala":       {Chunking: "var.", Bundling: false, Compression: "no", Dedup: true, DedupAfterDelete: true, DeltaEncoding: false},
		"googledrive": {Chunking: "8 MB", Bundling: false, Compression: "smart", Dedup: false, DedupAfterDelete: false, DeltaEncoding: false},
		"clouddrive":  {Chunking: "no", Bundling: false, Compression: "no", Dedup: false, DedupAfterDelete: false, DeltaEncoding: false},
	}
	all := DetectCapabilitiesAll(client.Profiles(), 7)
	for _, p := range client.Profiles() {
		got := all[p.Service]
		w := want[p.Service]
		if got.Chunking != w.Chunking {
			t.Errorf("%s chunking = %q, want %q", p.Service, got.Chunking, w.Chunking)
		}
		if got.Bundling != w.Bundling {
			t.Errorf("%s bundling = %v, want %v", p.Service, got.Bundling, w.Bundling)
		}
		if got.Compression != w.Compression {
			t.Errorf("%s compression = %q, want %q", p.Service, got.Compression, w.Compression)
		}
		if got.Dedup != w.Dedup || got.DedupAfterDelete != w.DedupAfterDelete {
			t.Errorf("%s dedup = %v/%v, want %v/%v", p.Service, got.Dedup, got.DedupAfterDelete, w.Dedup, w.DedupAfterDelete)
		}
		if got.DeltaEncoding != w.DeltaEncoding {
			t.Errorf("%s delta = %v, want %v", p.Service, got.DeltaEncoding, w.DeltaEncoding)
		}
	}
}

// ---- Fig. 2 / discovery ----

func TestDiscoverGoogleDriveEdges(t *testing.T) {
	d := Discover(client.GoogleDrive(), 8)
	// "Overall, more than 100 different entry points have been
	// located."
	if d.EdgeCount() <= 100 {
		t.Fatalf("edge count = %d, want > 100", d.EdgeCount())
	}
	if d.LocatedFraction() < 0.9 {
		t.Fatalf("located %.0f%%, want >= 90%%", 100*d.LocatedFraction())
	}
	if len(d.Countries) < 20 {
		t.Fatalf("countries = %d, want world-wide spread", len(d.Countries))
	}
	owners := strings.Join(d.Owners, " ")
	if !strings.Contains(owners, "Google") {
		t.Fatalf("owners = %v", d.Owners)
	}
}

func TestDiscoverDropboxOwnership(t *testing.T) {
	d := Discover(client.Dropbox(), 9)
	owners := strings.Join(d.Owners, " ")
	// Control on Dropbox's own network, storage on Amazon.
	if !strings.Contains(owners, "Dropbox") || !strings.Contains(owners, "Amazon") {
		t.Fatalf("owners = %v", d.Owners)
	}
	// Names must separate control, storage and notification.
	names := strings.Join(d.Names, " ")
	for _, want := range []string{"control", "storage", "notify"} {
		if !strings.Contains(names, want) {
			t.Fatalf("names = %v, missing %s", d.Names, want)
		}
	}
}

func TestDiscoverWualaEuropeanFootprint(t *testing.T) {
	d := Discover(client.Wuala(), 10)
	// All located servers must be in Europe (Sect. 3.2).
	for _, s := range d.Servers {
		if !s.Location.Located() {
			continue
		}
		c := s.Location.Coord
		if c.Lon < -12 || c.Lon > 25 || c.Lat < 38 || c.Lat > 58 {
			t.Fatalf("Wuala server %s located at %v — outside Europe", s.IP, c)
		}
	}
	if len(d.Owners) < 2 {
		t.Fatalf("Wuala should span multiple hosting providers: %v", d.Owners)
	}
}

// ---- reports ----

func TestTable1Rendering(t *testing.T) {
	caps := map[string]Capabilities{
		"dropbox":  {Service: "dropbox", Chunking: "4 MB", Bundling: true, Compression: "always", Dedup: true, DeltaEncoding: true},
		"skydrive": {Service: "skydrive", Chunking: "var.", Compression: "no"},
	}
	out := Table1(caps, []string{"dropbox", "skydrive"})
	for _, want := range []string{"Dropbox", "SkyDrive", "4 MB", "var.", "always", "Chunking", "Delta-encoding"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestReportsRender(t *testing.T) {
	idle := []IdleResult{{Service: "dropbox", LoginBytes: 35000, IdleRateBps: 82}}
	if out := Fig1Report(idle); !strings.Contains(out, "Dropbox") || !strings.Contains(out, "82") {
		t.Fatalf("Fig1Report:\n%s", out)
	}
	csv := VolumeSeriesCSV("dropbox-append", []VolumePoint{{FileSize: 1024, Upload: 2048}})
	if csv != "dropbox-append,1024,2048\n" {
		t.Fatalf("VolumeSeriesCSV: %q", csv)
	}
	s := SYNSeries{Service: "clouddrive", Times: []time.Duration{time.Second, 2 * time.Second}}
	if out := SYNSeriesCSV(s); !strings.Contains(out, "clouddrive,1.000,1") {
		t.Fatalf("SYNSeriesCSV: %q", out)
	}
	if FormatDuration(300*time.Millisecond) != "300 ms" || FormatDuration(4*time.Second) != "4.0 s" {
		t.Fatal("FormatDuration")
	}
}

func TestFig6ReportRendering(t *testing.T) {
	r := Fig6Result{
		Service:   "dropbox",
		Workloads: workload.StandardBenchmarks(workload.Binary),
		Summaries: []Summary{
			{MeanStartup: time.Second, MeanCompletion: 2 * time.Second, MeanOverhead: 1.4},
			{MeanStartup: time.Second, MeanCompletion: 3 * time.Second, MeanOverhead: 1.2},
			{MeanStartup: 2 * time.Second, MeanCompletion: 4 * time.Second, MeanOverhead: 1.5},
			{MeanStartup: 3 * time.Second, MeanCompletion: 10 * time.Second, MeanOverhead: 2.2},
		},
	}
	out := Fig6Report([]Fig6Result{r})
	for _, want := range []string{"Fig 6(a)", "Fig 6(b)", "Fig 6(c)", "100x10kB", "Dropbox"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig6Report missing %q:\n%s", want, out)
		}
	}
}

func TestStorageFilterWualaHeuristic(t *testing.T) {
	// Wuala has no control/storage name split: the filter must fall
	// back to connection sequences (flows opened after the workload)
	// and flow sizes, and must exclude the login-era control session.
	batch := workload.Batch{Count: 2, Size: 200 << 10, Kind: workload.Binary}
	tb, t0 := syncCell{p: client.Wuala(), batch: batch, host: campusHost}.syncOnce(91)

	filter := tb.StorageFilter(t0)
	var storageFlows, controlFlows int
	for _, f := range tb.Stream.Flows() {
		if filter(f) {
			storageFlows++
			if f.OpenedAt.Before(t0) {
				t.Errorf("login-era flow %d classified as storage", f.ID)
			}
		} else {
			controlFlows++
		}
	}
	if storageFlows == 0 || controlFlows == 0 {
		t.Fatalf("classification degenerate: %d storage, %d control", storageFlows, controlFlows)
	}
	// The classified storage traffic must carry the content volume.
	up := tb.AnalyzeWindow(t0, filter).WireUp
	if up < 400<<10 {
		t.Fatalf("storage upstream = %d, want >= content", up)
	}
}

func TestEstimateRTTFromHandshake(t *testing.T) {
	tb := NewTestbed(client.SkyDrive(), 92, 0)
	rec := tb.Stream.AddRecorder(sim.Epoch)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	tb.StartWindow(t0)
	tb.Folder.Create(t0, "f.bin", workload.Generate(tb.RNG, workload.Binary, 50_000))
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)

	rtt := estimateRTT(rec, tb.StorageFilter(t0))
	// SkyDrive storage sits in the US: the sniffer-estimated RTT must
	// land in the transatlantic/transcontinental band.
	if rtt < 80*time.Millisecond || rtt > 220*time.Millisecond {
		t.Fatalf("estimated RTT = %v, want 80-220 ms", rtt)
	}
	// Fallback path: no SYNs matching the filter.
	none := estimateRTT(rec, func(trace.FlowInfo) bool { return false })
	if none != fallbackRTT {
		t.Fatalf("fallback RTT = %v, want %v", none, fallbackRTT)
	}
}
