package repro

// One benchmark per table and figure of the paper, plus ablations for
// the reproduction's design choices. Each benchmark runs the
// same harness cmd/cloudbench uses and reports the simulated
// measurement as custom benchmark metrics, so `go test -bench=.`
// regenerates the paper's dataset shapes in one pass:
//
//	Table 1  -> BenchmarkTable1Capabilities
//	Fig. 1   -> BenchmarkFig1IdleTraffic
//	Fig. 2   -> BenchmarkFig2EdgeDiscovery
//	Fig. 3   -> BenchmarkFig3SYNCount
//	Fig. 4   -> BenchmarkFig4DeltaEncoding
//	Fig. 5   -> BenchmarkFig5Compression
//	Fig. 6a  -> BenchmarkFig6Startup
//	Fig. 6b  -> BenchmarkFig6Completion
//	Fig. 6c  -> BenchmarkFig6Overhead

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkFig1IdleTraffic measures the background traffic of each
// client over the paper's 16-minute idle window. Custom metrics:
// idle_bps (Sect. 3.1: 82 Dropbox, 32 SkyDrive, 60 Wuala, 42 Google
// Drive, ~6000 Cloud Drive) and login_kB.
func BenchmarkFig1IdleTraffic(b *testing.B) {
	for _, p := range client.Profiles() {
		b.Run(p.Service, func(b *testing.B) {
			var r core.IdleResult
			for i := 0; i < b.N; i++ {
				r = core.RunIdle(p, int64(i)+1)
			}
			b.ReportMetric(r.IdleRateBps, "idle_bps")
			b.ReportMetric(float64(r.LoginBytes)/1000, "login_kB")
		})
	}
}

// BenchmarkFig2EdgeDiscovery runs the architecture-discovery pipeline
// for Google Drive (Fig. 2: >100 entry points world-wide) and reports
// edges found and countries covered.
func BenchmarkFig2EdgeDiscovery(b *testing.B) {
	var d core.Discovery
	for i := 0; i < b.N; i++ {
		d = core.Discover(client.GoogleDrive(), int64(i)+1)
	}
	b.ReportMetric(float64(d.EdgeCount()), "edges")
	b.ReportMetric(float64(len(d.Countries)), "countries")
	b.ReportMetric(100*d.LocatedFraction(), "located_pct")
}

// BenchmarkFig3SYNCount uploads 100x10 kB and counts TCP SYNs
// (Fig. 3: ~100 Google Drive, ~400 Cloud Drive) and the completion
// time (~30 s and ~55 s).
func BenchmarkFig3SYNCount(b *testing.B) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	for _, svc := range []string{"googledrive", "clouddrive"} {
		p, _ := client.ProfileFor(svc)
		b.Run(svc, func(b *testing.B) {
			var s core.SYNSeries
			for i := 0; i < b.N; i++ {
				s = core.RunSYNCount(p, batch, int64(i)+1)
			}
			b.ReportMetric(float64(len(s.Times)), "syns")
			b.ReportMetric(s.Duration.Seconds(), "upload_s")
		})
	}
}

// BenchmarkFig4DeltaEncoding appends 100 kB to a 1 MB file and
// reports the uploaded volume (Fig. 4 left: ~0.1 MB for Dropbox,
// ~1.1 MB for everyone else).
func BenchmarkFig4DeltaEncoding(b *testing.B) {
	for _, p := range client.Profiles() {
		b.Run(p.Service, func(b *testing.B) {
			var up int64
			for i := 0; i < b.N; i++ {
				pts := core.Fig4DeltaSeries(p, core.ModAppend, []int64{1 << 20}, 100<<10, int64(i)+1)
				up = pts[0].Upload
			}
			b.ReportMetric(float64(up)/1e6, "upload_MB")
		})
	}
}

// BenchmarkFig4RandomInsert is the right panel of Fig. 4: insert
// 100 kB at a random offset of a 10 MB file (combined effects with
// chunking and deduplication).
func BenchmarkFig4RandomInsert(b *testing.B) {
	for _, svc := range []string{"dropbox", "wuala", "skydrive"} {
		p, _ := client.ProfileFor(svc)
		b.Run(svc, func(b *testing.B) {
			var up int64
			for i := 0; i < b.N; i++ {
				pts := core.Fig4DeltaSeries(p, core.ModRandom, []int64{10 << 20}, 100<<10, int64(i)+1)
				up = pts[0].Upload
			}
			b.ReportMetric(float64(up)/1e6, "upload_MB")
		})
	}
}

// BenchmarkFig5Compression uploads a 1 MB file of each Fig. 5 kind
// and reports transmitted volume per service.
func BenchmarkFig5Compression(b *testing.B) {
	kinds := []workload.Kind{workload.Text, workload.Binary, workload.FakeJPEG}
	for _, p := range client.Profiles() {
		for _, kind := range kinds {
			b.Run(p.Service+"/"+kind.String(), func(b *testing.B) {
				var up int64
				for i := 0; i < b.N; i++ {
					pts := core.Fig5CompressionSeries(p, kind, []int64{1 << 20}, int64(i)+1)
					up = pts[0].Upload
				}
				b.ReportMetric(float64(up)/1e6, "upload_MB")
			})
		}
	}
}

// fig6Workloads are the paper's four benchmark workloads.
var fig6Workloads = workload.StandardBenchmarks(workload.Binary)

// BenchmarkFig6Startup reports the synchronization start-up time per
// service and workload (Fig. 6a).
func BenchmarkFig6Startup(b *testing.B) {
	for _, p := range client.Profiles() {
		for _, w := range fig6Workloads {
			b.Run(p.Service+"/"+w.String(), func(b *testing.B) {
				var m core.Metrics
				for i := 0; i < b.N; i++ {
					m = core.RunSync(p, w, int64(i)+1, core.DefaultJitter)
				}
				b.ReportMetric(m.Startup.Seconds(), "startup_s")
			})
		}
	}
}

// BenchmarkFig6Completion reports the upload completion time per
// service and workload (Fig. 6b).
func BenchmarkFig6Completion(b *testing.B) {
	for _, p := range client.Profiles() {
		for _, w := range fig6Workloads {
			b.Run(p.Service+"/"+w.String(), func(b *testing.B) {
				var m core.Metrics
				for i := 0; i < b.N; i++ {
					m = core.RunSync(p, w, int64(i)+1, core.DefaultJitter)
				}
				b.ReportMetric(m.Completion.Seconds(), "completion_s")
				b.ReportMetric(m.GoodputBps/1e6, "goodput_Mbps")
			})
		}
	}
}

// BenchmarkFig6Overhead reports protocol overhead per service and
// workload (Fig. 6c; paper: Dropbox 47% at 100 kB, Google Drive 2x at
// 100x10 kB, Cloud Drive >5x).
func BenchmarkFig6Overhead(b *testing.B) {
	for _, p := range client.Profiles() {
		for _, w := range fig6Workloads {
			b.Run(p.Service+"/"+w.String(), func(b *testing.B) {
				var m core.Metrics
				for i := 0; i < b.N; i++ {
					m = core.RunSync(p, w, int64(i)+1, core.DefaultJitter)
				}
				b.ReportMetric(m.Overhead, "overhead_x")
			})
		}
	}
}

// BenchmarkTable1Capabilities runs the full Sect. 4 detection suite
// per service (Table 1).
func BenchmarkTable1Capabilities(b *testing.B) {
	for _, p := range client.Profiles() {
		b.Run(p.Service, func(b *testing.B) {
			var c core.Capabilities
			for i := 0; i < b.N; i++ {
				c = core.DetectCapabilitiesAll([]client.Profile{p}, int64(i)+1)[p.Service]
			}
			score := 0.0
			if c.Bundling {
				score++
			}
			if c.Dedup {
				score++
			}
			if c.DeltaEncoding {
				score++
			}
			if c.Compression != "no" {
				score++
			}
			if c.Chunking != "no" {
				score++
			}
			b.ReportMetric(score, "capabilities")
		})
	}
}

// ---- Ablations: isolate each design choice ----

// ablate runs one workload on a Dropbox variant with a profile tweak.
func ablate(b *testing.B, w workload.Batch, tweak func(*client.Profile)) core.Metrics {
	b.Helper()
	p := client.Dropbox()
	tweak(&p)
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		m = core.RunSync(p, w, int64(i)+1, 0)
	}
	return m
}

// BenchmarkAblationBundling contrasts Dropbox with bundling on vs off
// (sequential per-file acknowledgments) on the 100x10 kB workload —
// the design choice behind the paper's factor-of-4 win.
func BenchmarkAblationBundling(b *testing.B) {
	w := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	b.Run("bundled", func(b *testing.B) {
		m := ablate(b, w, func(*client.Profile) {})
		b.ReportMetric(m.Completion.Seconds(), "completion_s")
	})
	b.Run("sequential", func(b *testing.B) {
		m := ablate(b, w, func(p *client.Profile) {
			p.Bundling = false
			p.Strategy = client.PersistentSequential
			p.ControlRPCsPerFile = 1
		})
		b.ReportMetric(m.Completion.Seconds(), "completion_s")
	})
	b.Run("per-file-conn", func(b *testing.B) {
		m := ablate(b, w, func(p *client.Profile) {
			p.Bundling = false
			p.Strategy = client.PerFileConn
			p.ControlRPCsPerFile = 1
		})
		b.ReportMetric(m.Completion.Seconds(), "completion_s")
	})
}

// BenchmarkAblationCompression contrasts compression policies on a
// compressible 1 MB text upload.
func BenchmarkAblationCompression(b *testing.B) {
	w := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Text}
	for _, mode := range []string{"always", "none"} {
		b.Run(mode, func(b *testing.B) {
			m := ablate(b, w, func(p *client.Profile) {
				if mode == "none" {
					p.Compression = 0 // compressor.None
				}
			})
			b.ReportMetric(float64(m.StorageUp)/1e6, "upload_MB")
			b.ReportMetric(m.Completion.Seconds(), "completion_s")
		})
	}
}

// BenchmarkAblationChunkSize sweeps Dropbox's chunk size on a 20 MB
// upload: chunking costs commit round trips but bounds loss-recovery
// units (Sect. 4.1 discusses why chunking is still advantageous).
func BenchmarkAblationChunkSize(b *testing.B) {
	w := workload.Batch{Count: 1, Size: 20 << 20, Kind: workload.Binary}
	for _, tc := range []struct {
		name string
		size int64
	}{{"1MB", 1 << 20}, {"4MB", 4 << 20}, {"16MB", 16 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			m := ablate(b, w, func(p *client.Profile) { p.ChunkSize = tc.size })
			b.ReportMetric(m.Completion.Seconds(), "completion_s")
		})
	}
}

// BenchmarkBundlingSets runs the Sect. 4.2 four-set study (same
// volume, 1/10/100/1000 files) for the two extreme strategies.
func BenchmarkBundlingSets(b *testing.B) {
	for _, svc := range []string{"dropbox", "clouddrive"} {
		p, _ := client.ProfileFor(svc)
		b.Run(svc, func(b *testing.B) {
			var st core.BundlingStudy
			for i := 0; i < b.N; i++ {
				st = core.RunBundlingStudy(p, 1_000_000, int64(i)+1)
			}
			b.ReportMetric(st.Results[3].Completion.Seconds(), "s_1000files")
			b.ReportMetric(float64(st.Results[3].Connections), "conns_1000files")
		})
	}
}

// BenchmarkRecoveryUnderFailures quantifies Sect. 4.1's chunking
// argument: a 16 MB upload with the storage path failing every 4 s.
func BenchmarkRecoveryUnderFailures(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int64
	}{{"no-chunking", 0}, {"4MB-chunks", 4 << 20}, {"1MB-chunks", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			var r core.RecoveryStudy
			for i := 0; i < b.N; i++ {
				r = core.RunRecovery(tc.size, 16<<20, 4*time.Second, int64(i)+1)
			}
			completed := 0.0
			if r.Completed {
				completed = 1
			}
			b.ReportMetric(completed, "completed")
			b.ReportMetric(r.WasteRatio, "waste_ratio")
		})
	}
}

// BenchmarkCampaignEngine measures the full campaign engine on the
// paper's stress workload — 24 repetitions of 100x10 kB — through the
// parallel worker pool and the forced-sequential path. Both produce
// bit-identical summaries; the ratio of the two is the parallel
// speedup on the current hardware.
func BenchmarkCampaignEngine(b *testing.B) {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	for _, svc := range []string{"clouddrive", "dropbox"} {
		p, _ := client.ProfileFor(svc)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"parallel", 0}, {"sequential", 1}} {
			b.Run(svc+"/"+mode.name, func(b *testing.B) {
				defer func(old int) { core.CampaignWorkers = old }(core.CampaignWorkers)
				core.CampaignWorkers = mode.workers
				var s core.Summary
				for i := 0; i < b.N; i++ {
					s = core.RunCampaign(p, batch, 24, 42)
				}
				b.ReportMetric(s.MeanCompletion.Seconds(), "completion_s")
			})
		}
	}
}

// BenchmarkPropagation measures two-device end-to-end latency (upload
// -> notify -> download) for a 1 MB file.
func BenchmarkPropagation(b *testing.B) {
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	for _, p := range client.Profiles() {
		b.Run(p.Service, func(b *testing.B) {
			var r core.PropagationResult
			for i := 0; i < b.N; i++ {
				r = core.RunPropagation(p, batch, int64(i)+1)
			}
			b.ReportMetric(r.Total.Seconds(), "total_s")
			b.ReportMetric(r.Notify.Seconds(), "notify_s")
		})
	}
}
