package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/workload"
)

func TestVantageByName(t *testing.T) {
	if v, ok := VantageByName("twente"); !ok || v.Name != "twente" {
		t.Fatal("twente lookup")
	}
	if v, ok := VantageByName("SEA"); !ok || v.Name != "seattle" {
		t.Fatalf("IATA lookup: %+v %v", v, ok)
	}
	if v, ok := VantageByName("Singapore"); !ok || !strings.Contains(v.Name, "singapore") {
		t.Fatalf("city lookup: %+v %v", v, ok)
	}
	if _, ok := VantageByName("atlantis"); ok {
		t.Fatal("unknown city matched")
	}
}

func TestLocationChangesTheWinner(t *testing.T) {
	// From Twente, Wuala (EU servers) beats SkyDrive (US) on a 1 MB
	// upload; from Seattle, the tables turn — the paper's point that
	// data-center placement drives single-file results and that the
	// tool should compare locations.
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	sea, _ := VantageByName("SEA")

	wualaEU := RunSyncLossy(client.Wuala(), batch, Twente, 61, 0, 0)
	wualaUS := RunSyncLossy(client.Wuala(), batch, sea, 61, 0, 0)
	skyEU := RunSyncLossy(client.SkyDrive(), batch, Twente, 61, 0, 0)
	skyUS := RunSyncLossy(client.SkyDrive(), batch, sea, 61, 0, 0)

	if wualaEU.Completion >= skyEU.Completion {
		t.Fatalf("from Twente Wuala (%v) should beat SkyDrive (%v)",
			wualaEU.Completion, skyEU.Completion)
	}
	// Moving to Seattle must hurt Wuala and help SkyDrive.
	if wualaUS.Completion <= wualaEU.Completion {
		t.Fatalf("Wuala from Seattle (%v) should be slower than from Twente (%v)",
			wualaUS.Completion, wualaEU.Completion)
	}
	if skyUS.Completion >= skyEU.Completion {
		t.Fatalf("SkyDrive from Seattle (%v) should be faster than from Twente (%v)",
			skyUS.Completion, skyEU.Completion)
	}
}

func TestGoogleDriveEdgeFollowsTheClient(t *testing.T) {
	// Google Drive's edge termination keeps single-file completion
	// location-insensitive — its advantage over centralized designs.
	batch := workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
	syd, _ := VantageByName("SYD")
	eu := RunSyncLossy(client.GoogleDrive(), batch, Twente, 62, 0, 0)
	au := RunSyncLossy(client.GoogleDrive(), batch, syd, 62, 0, 0)
	ratio := au.Completion.Seconds() / eu.Completion.Seconds()
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("edge network should level locations: Twente %v vs Sydney %v",
			eu.Completion, au.Completion)
	}
}

func TestLocationStudyAndReport(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100 << 10, Kind: workload.Binary}
	sea, _ := VantageByName("SEA")
	iad, _ := VantageByName("IAD")
	vs := []Vantage{Twente, sea, iad}
	cells := LocationStudy(client.Profiles(), batch, vs, 2, 63)
	if len(cells) != len(client.Profiles())*len(vs) {
		t.Fatalf("cells = %d", len(cells))
	}
	out := LocationReport(cells, vs)
	for _, want := range []string{"twente", "seattle", "washington dulles", "Dropbox", "Cloud Drive", "( 2 r)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Every vantage name in the header is set off by a space, however
	// long: IAD's 17-character name must not run into its neighbour.
	header, _, _ := strings.Cut(out, "\n")
	for _, v := range vs {
		if !strings.Contains(header, " "+v.Name) {
			t.Fatalf("header runs %q into its neighbour: %q", v.Name, header)
		}
	}
}

// TestLocationStudyHonoursProfiles: a study over a profile subset runs
// only those services, one cell per vantage.
func TestLocationStudyHonoursProfiles(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100 << 10, Kind: workload.Binary}
	sea, _ := VantageByName("SEA")
	vs := []Vantage{Twente, sea}
	cells := LocationStudy([]client.Profile{client.Dropbox()}, batch, vs, 2, 63)
	if len(cells) != len(vs) {
		t.Fatalf("cells = %d, want %d", len(cells), len(vs))
	}
	for i, c := range cells {
		if c.Service != "dropbox" || c.Vantage != vs[i].Name || c.Summary.RepsUsed != 2 {
			t.Fatalf("cell %d = %s@%s (%d reps), want dropbox@%s (2 reps)", i, c.Service, c.Vantage, c.Summary.RepsUsed, vs[i].Name)
		}
	}
}

// TestLocationFixedIsAdaptivePrefix: the fixed location study is the
// adaptive one under MinReps = MaxReps, cell by cell — the precision
// target changes when to stop, never what runs, and both designs
// report the one precision statistic.
func TestLocationFixedIsAdaptivePrefix(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100 << 10, Kind: workload.Binary}
	sin, _ := VantageByName("SIN")
	vs := []Vantage{Twente, sin}
	profiles := []client.Profile{client.Dropbox(), client.Wuala()}
	fixed := LocationStudy(profiles, batch, vs, 8, 42)
	adaptive := LocationStudyAdaptive(profiles, batch, vs,
		StopRule{TargetRelHW: 1, MinReps: 8, MaxReps: 8}, VarianceReduction{}, 42)
	if len(fixed) != len(adaptive) {
		t.Fatalf("fixed has %d cells, adaptive %d", len(fixed), len(adaptive))
	}
	for i := range fixed {
		f, a := fixed[i], adaptive[i]
		if !reflect.DeepEqual(f, a) {
			t.Fatalf("cell %d: adaptive 8-rep cell diverged from fixed 8-rep:\nfixed    %+v\nadaptive %+v", i, f, a)
		}
	}
}
