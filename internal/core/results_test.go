package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

func tinyCampaign(v Vantage, seed int64) Campaign {
	// A fast 1-rep campaign for serialization tests.
	c := Campaign{Tool: ToolVersion, Vantage: v.Name, Seed: seed, Reps: 1}
	batches := workload.StandardBenchmarks(workload.Binary)[:2]
	for _, svc := range []string{"dropbox", "wuala"} {
		p := mustProfile(svc)
		r := Fig6Result{Service: svc, Workloads: batches}
		for i, b := range batches {
			r.Summaries = append(r.Summaries,
				Summarize([]Metrics{RunSyncLossy(p, b, v, seed+int64(i), 0, 0)}))
		}
		c.Fig6 = append(c.Fig6, r)
	}
	return c
}

func TestCampaignJSONRoundTrip(t *testing.T) {
	c := tinyCampaign(Twente, 81)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != ToolVersion || back.Vantage != "twente" || len(back.Fig6) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Fig6[0].Summaries[0].MeanCompletion != c.Fig6[0].Summaries[0].MeanCompletion {
		t.Fatal("summary values drifted through JSON")
	}
}

func TestReadCampaignRejectsGarbage(t *testing.T) {
	if _, err := ReadCampaign(strings.NewReader("{}")); err == nil {
		t.Fatal("accepted empty object")
	}
	if _, err := ReadCampaign(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted non-JSON")
	}
}

// TestReadCampaignRejectsInvalidCells: a Fig. 6 or loss-sweep workload
// that workload.Batch.Validate refuses, or a loss rate outside [0, 1),
// fails the read; every committed BENCH snapshot still passes.
func TestReadCampaignRejectsInvalidCells(t *testing.T) {
	for _, in := range []string{
		`{"tool":"x","fig6":[{"Service":"box","Workloads":[{"Count":-1,"Size":1,"Kind":0}],"Summaries":[{}]}]}`,
		`{"tool":"x","fig6":[{"Service":"box","Workloads":[{"Count":1,"Size":1,"Kind":99}],"Summaries":[{}]}]}`,
		`{"tool":"x","lossy":[{"service":"box","loss_rate":0.02,"workload":{"Count":1,"Size":-1,"Kind":0}}]}`,
		`{"tool":"x","lossy":[{"service":"box","loss_rate":1,"workload":{"Count":1,"Size":1,"Kind":0}}]}`,
		`{"tool":"x","lossy":[{"service":"box","loss_rate":-0.1,"workload":{"Count":1,"Size":1,"Kind":0}}]}`,
	} {
		if _, err := ReadCampaign(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
	snapshots, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(snapshots) == 0 {
		t.Fatalf("no committed snapshots: %v", err)
	}
	for _, path := range snapshots {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCampaign(bytes.NewReader(b)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestCompareIdenticalCampaignsIsQuiet(t *testing.T) {
	c := tinyCampaign(Twente, 82)
	if deltas := Compare(c, c, 1.3); len(deltas) != 0 {
		t.Fatalf("self-comparison found %d deltas", len(deltas))
	}
}

func TestCompareDetectsLocationShift(t *testing.T) {
	sea, _ := VantageByName("SEA")
	eu := tinyCampaign(Twente, 83)
	us := tinyCampaign(sea, 83)
	deltas := Compare(eu, us, 1.3)
	if len(deltas) == 0 {
		t.Fatal("moving the vantage across the Atlantic changed nothing?")
	}
	// Wuala must appear: its EU placement is the location-sensitive
	// one.
	found := false
	for _, d := range deltas {
		if d.Service == "wuala" && d.Metric == "completion_s" && d.Ratio > 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wuala completion regression not flagged: %+v", deltas)
	}
	out := DeltaReport(deltas)
	if !strings.Contains(out, "wuala") {
		t.Fatalf("report:\n%s", out)
	}
	if DeltaReport(nil) != "no significant differences\n" {
		t.Fatal("empty report")
	}
}

func TestCompareThresholdNormalization(t *testing.T) {
	c := tinyCampaign(Twente, 84)
	// 0.5 and 2.0 must behave identically.
	a := Compare(c, c, 0.5)
	b := Compare(c, c, 2.0)
	if len(a) != len(b) {
		t.Fatal("threshold normalization broken")
	}
}

func TestRunFullCampaignShape(t *testing.T) {
	c := RunFullCampaign(Twente, 1, 85)
	if c.Reps != 1 {
		t.Fatalf("campaign records %d reps, want the single one that ran", c.Reps)
	}
	if len(c.Fig6) != 5 || len(c.Idle) != 5 {
		t.Fatalf("campaign shape: %d fig6, %d idle", len(c.Fig6), len(c.Idle))
	}
	for _, r := range c.Fig6 {
		if len(r.Summaries) != 4 {
			t.Fatalf("%s: %d summaries", r.Service, len(r.Summaries))
		}
	}
	if !c.CreatedAt.Equal(time.Date(2013, 10, 23, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("campaign timestamp must be the virtual epoch (determinism)")
	}
}

func mustProfile(svc string) client.Profile {
	p, ok := client.ProfileFor(svc)
	if !ok {
		panic(svc)
	}
	return p
}
