package core

import (
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
	vs := []Vantage{Twente, sea}
	cells := LocationStudy(batch, vs, 63)
	if len(cells) != len(client.Profiles())*2 {
		t.Fatalf("cells = %d", len(cells))
	}
	out := LocationReport(cells, vs)
	for _, want := range []string{"twente", "seattle", "Dropbox", "Cloud Drive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
