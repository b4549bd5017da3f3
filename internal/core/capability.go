package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Capabilities is one row of Table 1, as *detected* by the Sect. 4
// tests — not copied from the client profile. The detectors only see
// the packet trace, so a mis-implemented client capability shows up
// as a detection mismatch in the tests.
type Capabilities struct {
	Service  string
	Chunking string // "no", "4 MB", "8 MB", "var."
	Bundling bool
	// Compression is "no", "always" or "smart".
	Compression string
	Dedup       bool
	// DedupAfterDelete reports whether deduplication still works
	// when a file is deleted and later restored (Sect. 4.3 step iv).
	DedupAfterDelete bool
	DeltaEncoding    bool
}

// numDetectors is how many independent Sect. 4 detectors make up one
// Table 1 row: chunking, bundling, compression, deduplication (one
// four-step experiment yielding both Dedup and DedupAfterDelete) and
// delta encoding.
//
// Delta encoding and compression are the verdicts of the Sect. 4.4
// and 4.5 upload experiments, so they read the Fig. 4 and Fig. 5
// cells. Chunking and bundling run the shared upload script with a
// recorder over its window (uploadBursts): they walk individual
// packets (Bursts, estimateRTT's SYN/SYN-ACK pairing), which the
// streaming fold does not keep. Their traces are single files or 100
// tiny ones, so O(packets) recording is irrelevant here. Dedup opens
// a fresh window at each of its four steps.
const numDetectors = 5

// CapabilityConfidence is a repeated Table 1 row: the detected
// capabilities, whether every probe seed agreed, and the precision
// achieved on the continuous detection statistic.
type CapabilityConfidence struct {
	Capabilities Capabilities
	// Unanimous reports whether every repetition detected identical
	// capabilities; a false value means the detectors are
	// seed-sensitive for this profile.
	Unanimous bool
	// RepsUsed and AchievedRelHW describe the sequential design over
	// ConnsPerFile (the Sect. 4.2 bundling statistic, the one
	// continuous detector output).
	RepsUsed      int
	AchievedRelHW float64
}

// DetectCapabilitiesAll runs the Sect. 4 suite once for every profile
// on the given seed: the single-probe preset of the capability
// driver, keyed by service.
func DetectCapabilitiesAll(profiles []client.Profile, seed int64) map[string]Capabilities {
	out := make(map[string]Capabilities, len(profiles))
	for _, cc := range detectCapabilities(profiles, fixedRule(1), seed) {
		out[cc.Capabilities.Service] = cc.Capabilities
	}
	return out
}

// DetectCapabilitiesAdaptive repeats the Sect. 4 suite for every
// profile across a campaignSeed-derived seed stream until each
// service's continuous bundling statistic (connections per file) is
// tight, reporting per service, in profile order, whether the boolean
// verdicts were unanimous across probes. It is cloudbench's
// -experiment table1 under -precision: detection robustness
// quantified instead of assumed from a single seed.
func DetectCapabilitiesAdaptive(profiles []client.Profile, rule StopRule, seed int64) []CapabilityConfidence {
	return detectCapabilities(profiles, rule.withDefaults(VarianceReduction{}), seed)
}

// capabilityProbe is one repetition of the suite for one profile: the
// detected row and its Sect. 4.2 connections-per-file statistic.
type capabilityProbe struct {
	caps  Capabilities
	conns float64
}

// detectCapabilities is the capability-suite body: one RunUntil cell
// per profile, repetition rep probing on campaignSeed(seed, rep), and
// each cell's stopping statistic the relative CI95 half-width of the
// connections per file over its probes so far. Under fixedRule(1)
// the only probe runs on seed itself.
func detectCapabilities(profiles []client.Profile, rule StopRule, seed int64) []CapabilityConfidence {
	probes := RunUntil(len(profiles), rule, CampaignWorkers, func(c, rep int) capabilityProbe {
		return probeCapabilities(profiles[c], campaignSeed(seed, rep))
	}, func(_ int, sample []capabilityProbe) bool {
		return connsRelHW(sample) <= rule.TargetRelHW
	})
	out := make([]CapabilityConfidence, len(profiles))
	for c, ps := range probes {
		out[c] = CapabilityConfidence{
			Capabilities:  ps[0].caps,
			Unanimous:     true,
			RepsUsed:      len(ps),
			AchievedRelHW: connsRelHW(ps),
		}
		for _, pr := range ps[1:] {
			if pr.caps != out[c].Capabilities {
				out[c].Unanimous = false
			}
		}
	}
	return out
}

// connsRelHW is relHalfWidth of the probes' connections per file.
func connsRelHW(probes []capabilityProbe) float64 {
	conns := make([]float64, len(probes))
	for i, pr := range probes {
		conns[i] = pr.conns
	}
	return relHalfWidth(conns)
}

// probeCapabilities runs the five Sect. 4 detectors for one (profile,
// seed), fanned out over the shared scheduler pool. Each detector
// builds its own testbed from (profile, seed) and writes only its own
// fields, so the probe is bit-identical to running them in sequence.
func probeCapabilities(p client.Profile, seed int64) capabilityProbe {
	pr := capabilityProbe{caps: Capabilities{Service: p.Service}}
	RunEach(numDetectors, CampaignWorkers, func(det int) {
		switch det {
		case 0:
			pr.caps.Chunking = DetectChunking(p, seed)
		case 1:
			b := DetectBundling(p, seed)
			pr.caps.Bundling, pr.conns = b.Bundling, b.ConnsPerFile
		case 2:
			pr.caps.Compression = DetectCompression(p, seed)
		case 3:
			// One four-step experiment yields both dedup verdicts;
			// running it twice with different seeds would report two
			// inconsistent experiments at twice the cost.
			d := DetectDedup(p, seed)
			pr.caps.Dedup, pr.caps.DedupAfterDelete = d.Dedup, d.AfterDelete
		case 4:
			pr.caps.DeltaEncoding = DetectDelta(p, seed)
		}
	})
	return pr
}

// fallbackRTT is the conservative estimate estimateRTT returns when
// the capture holds no matching handshake to measure.
const fallbackRTT = 100 * time.Millisecond

// estimateRTT recovers the path RTT from the TCP handshake of a flow —
// the sniffer's view (SYN to SYN-ACK), needing no model internals.
func estimateRTT(cap *trace.Capture, f trace.FlowFilter) time.Duration {
	set := make(map[trace.FlowID]time.Time)
	for _, p := range cap.Packets() {
		if p.Flags.SYN && !p.Flags.ACK && f(cap.Flow(p.Flow)) {
			set[p.Flow] = p.Time
		}
		if p.Flags.SYN && p.Flags.ACK {
			if t0, ok := set[p.Flow]; ok {
				return p.Time.Sub(t0)
			}
		}
	}
	return fallbackRTT
}

// uploadBursts runs the upload script once on seed with a recorder
// over its window, and splits the window's storage upload into bursts
// at 1.4 handshake RTTs — the quiet gap that separates chunks (Sect.
// 4.1) and per-file acknowledgments (Sect. 4.2). It returns the
// testbed, the window start and the bursts.
func uploadBursts(p client.Profile, batch workload.Batch, seed int64) (*Testbed, time.Time, []trace.Burst) {
	tb, t0, rec := syncCell{p: p, batch: batch, host: campusHost}.recordedRun(seed)
	storage := tb.StorageFilter(t0)
	rtt := estimateRTT(rec, storage)
	return tb, t0, rec.Bursts(storage, rtt+2*rtt/5)
}

// DetectChunking uploads one large file and infers the chunking
// strategy from upload pauses (Sect. 4.1): no pauses means the file
// travelled as a single object; regular pause spacing means fixed
// chunks (the spacing is the chunk size); irregular spacing means
// variable chunks.
func DetectChunking(p client.Profile, seed int64) string {
	// Large enough for a dozen chunks at the biggest chunk size in
	// the wild (8 MB), so the size statistics are meaningful; not a
	// multiple of common chunk sizes, so the remainder chunk is
	// detectable and excluded.
	const fileSize = 61 << 20
	big := workload.Batch{Count: 1, Size: fileSize, Kind: workload.Binary}
	_, _, bursts := uploadBursts(p, big, seed)
	if len(bursts) <= 1 {
		return "no"
	}
	// Each burst before a pause is one chunk. Bursts below a small
	// floor are protocol artifacts (the TLS handshake before the
	// first data, trailing acknowledgments), not chunks. The last
	// burst is excluded: the final chunk of a fixed-size chunker is
	// legitimately short and would fake variability.
	const chunkFloor = 64 << 10
	var sizes []float64
	for _, b := range bursts[:len(bursts)-1] {
		if b.Bytes >= chunkFloor {
			sizes = append(sizes, float64(b.Bytes))
		}
	}
	if len(sizes) <= 1 {
		return "no"
	}

	if stats.CV(sizes) > 0.25 {
		return "var."
	}
	return fmt.Sprintf("%.0f MB", stats.Mean(sizes)/(1<<20))
}

// BundlingResult is the outcome of the Sect. 4.2 test.
type BundlingResult struct {
	Bundling bool
	// ConnsPerFile is how many connections the client opened per
	// file in the 100-file set (Fig. 3: ~1 for Google Drive, ~4 for
	// Cloud Drive, ~0 for connection-reusing services).
	ConnsPerFile float64
	// SequentialAcks reports per-file application acknowledgments,
	// detected by counting packet bursts (SkyDrive, Wuala).
	SequentialAcks bool
}

// DetectBundling uploads the same volume split into 100 files and
// analyzes connections and bursts (Sect. 4.2).
func DetectBundling(p client.Profile, seed int64) BundlingResult {
	const files = 100
	batch := workload.Batch{Count: files, Size: 10_000, Kind: workload.Binary}
	tb, t0, bursts := uploadBursts(p, batch, seed)
	conns := tb.AnalyzeWindow(t0, trace.AllFlows).Connections

	r := BundlingResult{ConnsPerFile: float64(conns) / files}
	r.SequentialAcks = len(bursts) >= files*3/4
	r.Bundling = r.ConnsPerFile < 0.5 && !r.SequentialAcks
	return r
}

// DedupResult is the outcome of the Sect. 4.3 four-step test.
type DedupResult struct {
	Dedup       bool
	AfterDelete bool
}

// DetectDedup runs the paper's four-step deduplication test: (i) a
// random file; (ii) a replica under a different name; (iii) a copy in
// a third folder; (iv) delete everything, then place the original
// back. Upload volumes per step tell whether replicas travelled; each
// step reads a window opened at its own start.
func DetectDedup(p client.Profile, seed int64) DedupResult {
	const size = 512 << 10
	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()

	syncStep := func(t0 time.Time) int64 {
		tb.StartWindow(t0)
		res := tb.Client.SyncChanges(tb.Folder, t0.Add(-time.Millisecond))
		tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))
		return tb.AnalyzeWindow(t0, tb.StorageFilter(t0)).WireUp
	}

	// Step i: original file.
	t1 := start
	tb.Folder.Create(t1, "one/original.bin", workload.Generate(tb.RNG, workload.Binary, size))
	u1 := syncStep(t1)

	// Step ii: same payload, different name, second folder.
	t2 := tb.Clock.Now()
	tb.Folder.Copy(t2, "one/original.bin", "two/replica.bin")
	u2 := syncStep(t2)

	// Step iii: copy of the original in a third folder.
	t3 := tb.Clock.Now()
	tb.Folder.Copy(t3, "one/original.bin", "three/copy.bin")
	u3 := syncStep(t3)

	// Step iv: delete all copies, then place the original back.
	t4 := tb.Clock.Now()
	tb.Folder.Delete(t4, "one/original.bin")
	tb.Folder.Delete(t4, "two/replica.bin")
	tb.Folder.Delete(t4, "three/copy.bin")
	syncStep(t4)
	t5 := tb.Clock.Now()
	tb.Folder.Restore(t5, "one/original.bin")
	u4 := syncStep(t5)

	threshold := u1 / 10
	return DedupResult{
		Dedup:       u2 < threshold && u3 < threshold,
		AfterDelete: u4 < threshold,
	}
}

// DetectDelta reads the Sect. 4.4 test in its append form off the
// Fig. 4 cell: modify a 1 MB file by adding 100 kB at the end and
// compare the upload volume with the file size.
func DetectDelta(p client.Profile, seed int64) bool {
	const base = 1 << 20
	const added = 100 << 10
	up := Fig4DeltaSeries(p, ModAppend, []int64{base}, added, seed)[0].Upload
	// Delta encoding: the upload tracks the added bytes, not the
	// file size.
	return up < (base+added)/3
}

// DetectCompression reads the Sect. 4.5 test off the Fig. 5 cells:
// upload equally sized text, random and fake-JPEG files and compare
// transmitted volumes.
func DetectCompression(p client.Profile, seed int64) string {
	upload := func(kind workload.Kind) int64 {
		return Fig5CompressionSeries(p, kind, []int64{500 << 10}, seed)[0].Upload
	}
	text := upload(workload.Text)
	random := upload(workload.Binary)
	if text > random*3/4 {
		return "no"
	}
	// Compression detected; fake JPEGs reveal whether the client
	// sniffs content types (Google Drive) or compresses blindly
	// (Dropbox).
	fake := upload(workload.FakeJPEG)
	if fake > random*3/4 {
		return "smart"
	}
	return "always"
}

// sortedServices is a helper for deterministic report ordering.
func sortedServices(m map[string]Capabilities) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
