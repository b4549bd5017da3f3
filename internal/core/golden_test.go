package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/goldenfile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenBatches are the workloads pinned by the golden run: the
// paper's 100x10 kB stress batch and a compressible 1 MB text file
// (which exercises chunking, compression, delta signatures and —
// for Wuala — encryption).
var goldenBatches = []workload.Batch{
	{Count: 100, Size: 10_000, Kind: workload.Binary},
	{Count: 1, Size: 1 << 20, Kind: workload.Text},
}

// goldenServices orders the profiles of the golden matrix.
var goldenServices = []string{"dropbox", "skydrive", "wuala", "googledrive", "clouddrive"}

// goldenCell names one pinned RunSync cell.
type goldenCell struct {
	Service string
	Batch   string
	Metrics Metrics
}

// TestGoldenMetricsAllProfiles pins RunSync output for every profile
// at fixed seeds against testdata/golden_metrics.json. The values were
// regenerated for the descriptor pipeline (PCG RNG: every simulated
// byte legitimately changed); within an engine generation they must
// reproduce bit for bit — any unsanctioned drift means an
// "optimization" changed simulated behaviour. Sanctioned refreshes run
// scripts/regen-golden.sh.
func TestGoldenMetricsAllProfiles(t *testing.T) {
	var got []goldenCell
	for _, svc := range goldenServices {
		p, ok := client.ProfileFor(svc)
		if !ok {
			t.Fatalf("unknown service %q", svc)
		}
		for bi, batch := range goldenBatches {
			got = append(got, goldenCell{
				Service: svc,
				Batch:   batch.String() + "/" + batch.Kind.String(),
				Metrics: RunSync(p, batch, 42+int64(bi), DefaultJitter),
			})
		}
	}
	goldenfile.Check(t, "testdata/golden_metrics.json", got)
}

// goldenUploads pins the delta-encoding and compression upload paths.
type goldenUploads struct {
	Fig4DropboxAppend int64
	Fig4DropboxRandom int64
	Fig5Text          map[string]int64
}

// TestGoldenUploadVolumes pins the delta-encoding and compression
// paths (the planner's delta sizes with literal-buffer reuse,
// descriptor-keyed size-only DEFLATE) against testdata/golden_uploads.json.
func TestGoldenUploadVolumes(t *testing.T) {
	dropbox := client.Dropbox()
	got := goldenUploads{
		Fig4DropboxAppend: Fig4DeltaSeries(dropbox, ModAppend, []int64{1 << 20}, 100<<10, 7)[0].Upload,
		Fig4DropboxRandom: Fig4DeltaSeries(dropbox, ModRandom, []int64{10 << 20}, 100<<10, 7)[0].Upload,
		Fig5Text:          map[string]int64{},
	}
	for _, svc := range []string{"dropbox", "googledrive", "wuala"} {
		p, _ := client.ProfileFor(svc)
		got.Fig5Text[svc] = Fig5CompressionSeries(p, workload.Text, []int64{1 << 20}, 11)[0].Upload
	}
	goldenfile.Check(t, "testdata/golden_uploads.json", got)
}

// TestCampaignParallelEquivalence proves the worker-pool campaign
// engine is bit-identical to the sequential engine: same seeds, same
// slots, same Summary, regardless of worker count.
func TestCampaignParallelEquivalence(t *testing.T) {
	batch := workload.Batch{Count: 20, Size: 10_000, Kind: workload.Binary}
	p := client.CloudDrive()
	var seq Summary
	withWorkers(t, 1, func() { seq = runCampaign(p, batch, fixedRule(6), VarianceReduction{}, 42) })
	for _, workers := range []int{2, 4, 0} {
		var par Summary
		withWorkers(t, workers, func() { par = runCampaign(p, batch, fixedRule(6), VarianceReduction{}, 42) })
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: summary differs from sequential engine\n seq %+v\n par %+v",
				workers, seq, par)
		}
	}
}

// TestMeasureWindowBoundary pins the half-open [t0, FarFuture) window
// semantics through the measurement path: packets recorded strictly
// before t0 (login, settle) must not leak into the benchmark window.
func TestMeasureWindowBoundary(t *testing.T) {
	p := client.Dropbox()
	tb := NewTestbed(p, 5, 0)
	rec := tb.Stream.AddRecorder(sim.Epoch)
	start := tb.Settle()
	preTraffic := rec.Window(rec.Packets()[0].Time, start).Analyze(nil).TotalWire
	if preTraffic == 0 {
		t.Fatal("login produced no traffic")
	}
	t0 := tb.Clock.Now()
	tb.StartWindow(t0)
	m := MeasureWindow(tb, t0, 0)
	if m.TotalTraffic != 0 {
		t.Errorf("benchmark window sees %d bytes of pre-window traffic", m.TotalTraffic)
	}
}

// goldenSYN pins one Fig. 3 run: how many connections the client
// opened, the upload duration, and the first and last SYN offsets.
type goldenSYN struct {
	SYNs        int
	Duration    time.Duration
	First, Last time.Duration
}

// goldenDetect pins the two upload-script detectors of one profile.
type goldenDetect struct {
	Bundling BundlingResult
	Chunking string
}

// goldenStudies pins the studies that run the shared upload script
// outside the campaign layers.
type goldenStudies struct {
	WhatIf        []WhatIfResult
	SYN           map[string]goldenSYN
	Detect        map[string]goldenDetect
	DiscoverNames []string
	DiscoverEdges int
}

// TestGoldenStudies pins the single-upload studies — the what-if
// counterfactuals, Fig. 3's SYN count, the bundling and chunking
// detectors and Discover's probe phase — at seed 42 against
// testdata/golden_studies.json.
func TestGoldenStudies(t *testing.T) {
	got := goldenStudies{
		WhatIf: WhatIfStudies(42),
		SYN:    map[string]goldenSYN{},
		Detect: map[string]goldenDetect{},
	}
	fig3 := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	for _, p := range []client.Profile{client.GoogleDrive(), client.CloudDrive()} {
		s := RunSYNCount(p, fig3, 42)
		g := goldenSYN{SYNs: len(s.Times), Duration: s.Duration}
		if len(s.Times) > 0 {
			g.First, g.Last = s.Times[0], s.Times[len(s.Times)-1]
		}
		got.SYN[p.Service] = g
	}
	for _, p := range client.Profiles() {
		got.Detect[p.Service] = goldenDetect{Bundling: DetectBundling(p, 42), Chunking: DetectChunking(p, 42)}
	}
	d := Discover(client.Dropbox(), 42)
	got.DiscoverNames, got.DiscoverEdges = d.Names, d.EdgeCount()
	goldenfile.Check(t, "testdata/golden_studies.json", got)
}

// goldenIdle pins one Fig. 1 run: the login volume, the idle rate and
// the cumulative timeline's length and last point.
type goldenIdle struct {
	LoginBytes  int64
	IdleRateBps float64
	Points      int
	Last        trace.TimelinePoint
}

// goldenBufferedProfile pins the studies of one profile that read a
// recorder or open windows mid-experiment.
type goldenBufferedProfile struct {
	Idle        goldenIdle
	Protocols   ProtocolReport
	Dedup       DedupResult
	Propagation PropagationResult
}

// goldenBuffered pins every study that reads a recorder or opens
// windows outside the upload script.
type goldenBuffered struct {
	Profiles map[string]goldenBufferedProfile
	Recovery []RecoveryStudy
}

// TestGoldenBufferedStudies pins the studies that read a recorder
// through Window and Analyze (Fig. 1's idle run, the Sect. 3.1
// protocol report) or open windows step by step (the dedup detector,
// upload recovery at cloudbench's four chunk sizes), and two-device
// propagation at 1 MB, at seed 42 against
// testdata/golden_buffered.json.
func TestGoldenBufferedStudies(t *testing.T) {
	got := goldenBuffered{Profiles: map[string]goldenBufferedProfile{}}
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	for _, p := range client.Profiles() {
		idle := RunIdle(p, 42)
		g := goldenBufferedProfile{
			Idle: goldenIdle{LoginBytes: idle.LoginBytes, IdleRateBps: idle.IdleRateBps,
				Points: len(idle.Timeline)},
			Protocols:   AnalyzeProtocols(p, 42),
			Dedup:       DetectDedup(p, 42),
			Propagation: RunPropagation(p, batch, 42),
		}
		if n := len(idle.Timeline); n > 0 {
			g.Idle.Last = idle.Timeline[n-1]
		}
		got.Profiles[p.Service] = g
	}
	for _, size := range []int64{0, 8 << 20, 4 << 20, 1 << 20} {
		got.Recovery = append(got.Recovery, RunRecovery(size, 16<<20, 4*time.Second, 42))
	}
	goldenfile.Check(t, "testdata/golden_buffered.json", got)
}
