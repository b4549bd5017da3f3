package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCampaign feeds arbitrary bytes to ReadCampaign, seeded with
// every committed BENCH_*.json snapshot. No input may panic it. A
// campaign it accepts has only valid workloads (workload.Batch.Validate)
// and loss rates in [0, 1), and must survive what cmd/comparebench does with one
// (ComparableCells and Compare, here against itself, which must find
// no delta) and a write and re-read: the re-read is accepted and writes
// back the same bytes. The committed corpus holds Fig. 6 rows whose
// summaries and workloads do not pair up and a batch with a negative
// file count.
func FuzzReadCampaign(f *testing.F) {
	snapshots, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range snapshots {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadCampaign(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, row := range c.Fig6 {
			for _, w := range row.Workloads {
				if w.Validate() != nil {
					t.Fatalf("accepted fig6 row %q with invalid workload %+v", row.Service, w)
				}
			}
		}
		for _, cell := range c.Lossy {
			if cell.Workload.Validate() != nil || !(cell.LossRate >= 0 && cell.LossRate < 1) {
				t.Fatalf("accepted loss cell %q with workload %+v at rate %v", cell.Service, cell.Workload, cell.LossRate)
			}
		}
		if n := ComparableCells(c, c); n < 0 {
			t.Fatalf("ComparableCells = %d", n)
		}
		if deltas := Compare(c, c, 1.05); len(deltas) != 0 {
			t.Fatalf("self-comparison found %d deltas:\n%s", len(deltas), DeltaReport(deltas))
		}
		var first bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatalf("writing an accepted campaign: %v", err)
		}
		back, err := ReadCampaign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written campaign: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("campaign changed through a write and re-read:\n%s\n%s", first.String(), second.String())
		}
	})
}
