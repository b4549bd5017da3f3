package core

import "testing"

// TestUnexportedBodiesRunTheEngine: in-package tests that call the
// unexported campaign bodies drive the engine as surely as the
// exported entry points do, so their inline pins are flagged.
func TestUnexportedBodiesRunTheEngine(t *testing.T) {
	s := runCampaign(6)
	if s.Connections != 84 { // want `hardcoded numeric pin against engine metric core\.Summary\.Connections`
		t.Fatal("connections")
	}
	if s.RepsUsed != 6 { // run-shape: how many reps the rule spent
		t.Fatal("reps used")
	}
}

func TestSummarizeCellsRunsTheEngine(t *testing.T) {
	s := summarizeCells(1)[0]
	if s.TotalTraffic != 6000 { // want `core\.Summary\.TotalTraffic`
		t.Fatal("traffic")
	}
}
