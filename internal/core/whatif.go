package core

import (
	"repro/internal/client"
	"repro/internal/compressor"
	"repro/internal/netem"
	"repro/internal/workload"
)

// The paper closes several observations with predictions ("we believe
// this is a bad implementation that will be fixed in next releases",
// "resources would therefore be wasted", "users with bandwidth
// constraints"). This file quantifies those counterfactuals: the same
// harness, one design change at a time.

// WhatIfResult compares a baseline against a variant.
type WhatIfResult struct {
	Name              string
	BaselineLabel     string
	VariantLabel      string
	Baseline, Variant float64
	Unit              string
}

// WhatIfCloudDrivePollingFixed re-runs the Fig. 1 idle experiment
// with Cloud Drive polling over a persistent connection like everyone
// else. The paper predicts the fix; this measures what it would save
// (the baseline is ~65 MB per day of background traffic).
func WhatIfCloudDrivePollingFixed(seed int64) WhatIfResult {
	before := RunIdle(client.CloudDrive(), seed)

	fixed := client.CloudDrive()
	fixed.PollPerConn = false
	fixed.PollUpBytes, fixed.PollDownBytes = 150, 150
	after := RunIdle(fixed, seed)

	return WhatIfResult{
		Name:          "clouddrive-polling-fixed",
		BaselineLabel: "new HTTPS conn per poll",
		VariantLabel:  "persistent poll channel",
		Baseline:      before.IdleRateBps,
		Variant:       after.IdleRateBps,
		Unit:          "b/s idle",
	}
}

// WhatIfDropboxSmartCompression gives Dropbox Google Drive's
// magic-number sniffing and uploads a real (incompressible) JPEG-like
// payload: the saving is CPU, not bytes — transmitted volume barely
// moves, which is the paper's point that compressing real JPEGs only
// wastes resources.
func WhatIfDropboxSmartCompression(seed int64) WhatIfResult {
	// PixelImage has an image header and incompressible body — the
	// "ordinary JPEG" stand-in (its body really does not compress).
	const size = 1 << 20
	upload := func(p client.Profile) float64 {
		pts := Fig5CompressionSeries(p, workload.PixelImage, []int64{size}, seed)
		return float64(pts[0].Upload) / 1e6
	}
	smart := client.Dropbox()
	smart.Compression = compressor.Smart
	return WhatIfResult{
		Name:          "dropbox-smart-compression",
		BaselineLabel: "always compress",
		VariantLabel:  "sniff magic numbers",
		Baseline:      upload(client.Dropbox()),
		Variant:       upload(smart),
		Unit:          "MB uploaded for a 1 MB image",
	}
}

// WhatIfMobileUplink reruns the 100x10 kB benchmark with the test
// computer on a 2 Mb/s uplink (the paper flags "users with bandwidth
// constraints (e.g., in 3G/4G networks)"): protocol overhead turns
// into real time, so the bundled client's advantage widens.
func WhatIfMobileUplink(seed int64) WhatIfResult {
	batch := workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
	completion := func(rateBps int64) float64 {
		host := func() *netem.Host {
			h := vantageHost(Twente)
			h.RateBps = rateBps
			return h
		}
		cell := syncCell{p: client.CloudDrive(), batch: batch, host: host}
		return cell.runOnce(seed).Completion.Seconds()
	}
	return WhatIfResult{
		Name:          "clouddrive-on-mobile-uplink",
		BaselineLabel: "campus 1 Gb/s",
		VariantLabel:  "3G/4G 2 Mb/s uplink",
		Baseline:      completion(0),
		Variant:       completion(2e6),
		Unit:          "s to sync 100x10kB",
	}
}

// WhatIfLossyPath reruns a 10 MB upload over a 2%-loss path: window
// halving turns a bandwidth-limited transfer into a loss-limited one,
// and the damage scales with the path RTT — another reason the
// US-centric services suffer from Europe.
func WhatIfLossyPath(seed int64) WhatIfResult {
	batch := workload.Batch{Count: 1, Size: 10 << 20, Kind: workload.Binary}
	completion := func(loss float64) float64 {
		return RunSyncLossy(client.SkyDrive(), batch, Twente, seed, 0, loss).Completion.Seconds()
	}
	return WhatIfResult{
		Name:          "skydrive-on-lossy-path",
		BaselineLabel: "clean path",
		VariantLabel:  "2% segment loss",
		Baseline:      completion(0),
		Variant:       completion(0.02),
		Unit:          "s to sync 1x10MB",
	}
}

// CloudDriveDailyBackgroundMB converts the Fig. 1 idle rate into the
// paper's headline "about 65 MB per day!".
func CloudDriveDailyBackgroundMB(seed int64) float64 {
	r := RunIdle(client.CloudDrive(), seed)
	return r.IdleRateBps / 8 * 86400 / 1e6
}

// whatIfStudies lists every counterfactual. Each study builds its own
// testbeds from the base seed alone, so the list is an index→work
// mapping with no shared state — exactly the RunN contract.
var whatIfStudies = []func(int64) WhatIfResult{
	WhatIfCloudDrivePollingFixed,
	WhatIfDropboxSmartCompression,
	WhatIfMobileUplink,
	WhatIfLossyPath,
}

// WhatIfStudies runs every counterfactual, fanned out over the shared
// campaign worker budget like every other campaign layer; results
// stay in declaration order regardless of worker count.
func WhatIfStudies(seed int64) []WhatIfResult {
	return RunN(len(whatIfStudies), CampaignWorkers, func(i int) WhatIfResult {
		return whatIfStudies[i](seed)
	})
}
