package core

import (
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/workload"
)

// TestSharedWorldMatchesRebuilt pins the static/per-run split: a fixed
// LossSweep and Fig6Matrix, whose repetitions share one world per
// (service, vantage), are bit-identical at one and four workers, and
// equal to the same repetitions each run on a world built for it
// alone. Under -race the four-worker runs also prove the shared world
// read-only.
func TestSharedWorldMatchesRebuilt(t *testing.T) {
	defer func(old int) { CampaignWorkers = old }(CampaignWorkers)
	const reps, seed = 2, 5
	profiles := []client.Profile{client.CloudDrive(), client.GoogleDrive()}
	rates := []float64{0, 0.02}
	batch := workload.Batch{Count: 10, Size: 10_000, Kind: workload.Binary}

	CampaignWorkers = 1
	loss := LossSweep(profiles, rates, batch, Twente, reps, seed)
	fig := Fig6Matrix(profiles, reps, seed)
	CampaignWorkers = 4
	if got := LossSweep(profiles, rates, batch, Twente, reps, seed); !reflect.DeepEqual(got, loss) {
		t.Fatalf("loss sweep diverged across worker counts\n got %+v\nwant %+v", got, loss)
	}
	if got := Fig6Matrix(profiles, reps, seed); !reflect.DeepEqual(got, fig) {
		t.Fatalf("Fig. 6 matrix diverged across worker counts\n got %+v\nwant %+v", got, fig)
	}

	rebuilt := func(c syncCell) Summary {
		runs := make([]Metrics, reps)
		for rep := range runs {
			runs[rep] = c.runOnce(c.seed(rep))
		}
		return Summarize(runs)
	}
	twente := func() *netem.Host { return vantageHost(Twente) }
	for si, p := range profiles {
		for ri, rate := range rates {
			c := syncCell{p: p, batch: batch, host: twente, jitter: DefaultJitter, loss: rate,
				seed: func(rep int) int64 { return lossSweepSeed(seed, si, ri, rep) }}
			if got, want := loss[si*len(rates)+ri].Summary, rebuilt(c); got != want {
				t.Errorf("%s@%g: shared world %+v, rebuilt per repetition %+v", p.Service, rate, got, want)
			}
		}
		for wi, b := range fig[si].Workloads {
			c := syncCell{p: p, batch: b, host: campusHost, jitter: DefaultJitter,
				seed: func(rep int) int64 { return fig6Seed(seed, wi, rep) }}
			if got, want := fig[si].Summaries[wi], rebuilt(c); got != want {
				t.Errorf("%s %s: shared world %+v, rebuilt per repetition %+v", p.Service, b, got, want)
			}
		}
	}
}

// TestInvalidPathPanics: a loss rate of 1 or more used to yield a
// finite completion time (the same as at 0.999), and a negative one
// silently ran loss-free. Both, and a negative jitter, are rejected
// before any repetition runs.
func TestInvalidPathPanics(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"RunSyncLossy loss 1", func() { RunSyncLossy(client.CloudDrive(), batch, Twente, 1, 0, 1) }},
		{"RunSyncLossy loss -0.1", func() { RunSyncLossy(client.CloudDrive(), batch, Twente, 1, 0, -0.1) }},
		{"RunSync jitter -0.1", func() { RunSync(client.CloudDrive(), batch, 1, -0.1) }},
		{"LossSweep loss 1", func() { LossSweep([]client.Profile{client.CloudDrive()}, []float64{0.02, 1}, batch, Twente, 1, 1) }},
		{"NewTestbed jitter -1", func() { NewTestbed(client.CloudDrive(), 1, -1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.run()
		}()
	}
}
