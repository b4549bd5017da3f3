// Package core is a fixture stub of the campaign engine: runners
// whose summary fields count as engine metrics, plus the run-shape
// fields (repetition counts, stopping rule echoes) that do not. The
// unexported bodies are what in-package tests drive.
package core

type Summary struct {
	Reps         int
	RepsUsed     int
	Connections  int
	TotalTraffic int64
	Overhead     float64
}

type Campaign struct {
	Precision float64
	MaxReps   int
}

func RunCampaign(reps int) Summary {
	return Summary{Reps: reps, RepsUsed: reps, Connections: reps, TotalTraffic: int64(reps) * 1000, Overhead: 1.1}
}

func RunCampaignAdaptive(maxReps int) Campaign {
	return Campaign{Precision: 0.05, MaxReps: maxReps}
}

func runCampaign(reps int) Summary { return RunCampaign(reps) }

func summarizeCells(cells int) []Summary { return make([]Summary, cells) }
