package goldendiscipline_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/goldendiscipline"
)

func TestGoldenDiscipline(t *testing.T) {
	analysistest.Run(t, "repro/internal/foo", goldendiscipline.Analyzer)
	analysistest.Run(t, "repro/internal/core", goldendiscipline.Analyzer)
}
