package main

import (
	"slices"
	"testing"
)

// TestParseLossRates: -loss takes the rates netem.CheckPath accepts,
// [0, 1), and rejects everything else with an error.
func TestParseLossRates(t *testing.T) {
	got, err := parseLossRates(" 0, 0.005,0.999 ,")
	if err != nil || !slices.Equal(got, []float64{0, 0.005, 0.999}) {
		t.Fatalf("parseLossRates = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "-0.1", "0.02,1.5", "NaN", "x", "", " , "} {
		if got, err := parseLossRates(bad); err == nil {
			t.Errorf("parseLossRates(%q) = %v, want an error", bad, got)
		}
	}
}
