package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file renders results in the paper's shapes: Table 1, the
// Fig. 6 bar groups, Fig. 1 rates, discovery summaries. Output is
// plain text (and CSV via the Series helpers) so that cmd/cloudbench
// output can be diffed between runs.

// yesNo renders a capability cell.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Table1 renders the capability matrix exactly in the paper's row
// order: Chunking, Bundling, Compression, Deduplication,
// Delta-encoding.
func Table1(caps map[string]Capabilities, order []string) string {
	if order == nil {
		order = sortedServices(caps)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "")
	for _, s := range order {
		fmt.Fprintf(&b, "%-14s", displayName(s))
	}
	b.WriteByte('\n')
	row := func(label string, cell func(Capabilities) string) {
		fmt.Fprintf(&b, "%-16s", label)
		for _, s := range order {
			fmt.Fprintf(&b, "%-14s", cell(caps[s]))
		}
		b.WriteByte('\n')
	}
	row("Chunking", func(c Capabilities) string { return c.Chunking })
	row("Bundling", func(c Capabilities) string { return yesNo(c.Bundling) })
	row("Compression", func(c Capabilities) string { return c.Compression })
	row("Deduplication", func(c Capabilities) string { return yesNo(c.Dedup) })
	row("Delta-encoding", func(c Capabilities) string { return yesNo(c.DeltaEncoding) })
	return b.String()
}

// displayName maps service keys to the paper's display names.
func displayName(service string) string {
	switch service {
	case "dropbox":
		return "Dropbox"
	case "skydrive":
		return "SkyDrive"
	case "wuala":
		return "Wuala"
	case "googledrive":
		return "Google Drive"
	case "clouddrive":
		return "Cloud Drive"
	default:
		return service
	}
}

// Fig6Report renders the three panels of Fig. 6 as one table per
// metric, services as rows, workloads as columns.
func Fig6Report(results []Fig6Result) string {
	if len(results) == 0 {
		return ""
	}
	var b strings.Builder
	header := func(title string) {
		fmt.Fprintf(&b, "\n%s\n%-14s", title, "service")
		for _, w := range results[0].Workloads {
			fmt.Fprintf(&b, "%12s", w.String())
		}
		b.WriteByte('\n')
	}

	header("Fig 6(a) synchronization start-up time (s)")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s", displayName(r.Service))
		for _, s := range r.Summaries {
			fmt.Fprintf(&b, "%12.1f", s.MeanStartup.Seconds())
		}
		b.WriteByte('\n')
	}

	header("Fig 6(b) completion time (s, log scale in the paper)")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s", displayName(r.Service))
		for _, s := range r.Summaries {
			fmt.Fprintf(&b, "%12.2f", s.MeanCompletion.Seconds())
		}
		b.WriteByte('\n')
	}

	header("Fig 6(c) protocol overhead (total traffic / content)")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s", displayName(r.Service))
		for _, s := range r.Summaries {
			fmt.Fprintf(&b, "%12.2f", s.MeanOverhead)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PrecisionReport renders the sampling side of an adaptive Fig. 6
// run: repetitions spent and achieved relative precision per cell, so
// a reader can see where the budget went and which cells hit the cap.
func PrecisionReport(results []Fig6Result) string {
	if len(results) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nsampling: reps used (achieved relative CI95 half-width)\n%-14s", "service")
	for _, w := range results[0].Workloads {
		fmt.Fprintf(&b, "%16s", w.String())
	}
	b.WriteByte('\n')
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s", displayName(r.Service))
		for _, s := range r.Summaries {
			fmt.Fprintf(&b, "%6d (%6.2f%%)", s.RepsUsed, s.AchievedRelHW*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig1Report renders login volume and idle rate per service
// (Sect. 3.1's numbers behind Fig. 1).
func Fig1Report(results []IdleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s%14s%16s\n", "service", "login (kB)", "idle rate (b/s)")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s%14.0f%16.0f\n",
			displayName(r.Service), float64(r.LoginBytes)/1000, r.IdleRateBps)
	}
	return b.String()
}

// VolumeSeriesCSV renders Fig. 4/5 series as CSV (size_bytes,
// upload_bytes) with a label column.
func VolumeSeriesCSV(label string, pts []VolumePoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%d\n", label, p.FileSize, p.Upload)
	}
	return b.String()
}

// SYNSeriesCSV renders a Fig. 3 series as CSV (t_seconds,
// cumulative_syns).
func SYNSeriesCSV(s SYNSeries) string {
	var b strings.Builder
	for i, t := range s.Times {
		fmt.Fprintf(&b, "%s,%.3f,%d\n", s.Service, t.Seconds(), i+1)
	}
	return b.String()
}

// DiscoveryReport summarizes one service's architecture discovery
// (Sect. 3.2).
func DiscoveryReport(d Discovery) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", displayName(d.Service))
	fmt.Fprintf(&b, "  DNS names observed:   %s\n", strings.Join(d.Names, ", "))
	fmt.Fprintf(&b, "  front-end addresses:  %d\n", len(d.Servers))
	fmt.Fprintf(&b, "  owners (whois):       %s\n", strings.Join(d.Owners, "; "))
	fmt.Fprintf(&b, "  located:              %.0f%%\n", 100*d.LocatedFraction())

	type cc struct {
		name string
		n    int
	}
	var cities []cc
	for c, n := range d.Cities {
		cities = append(cities, cc{c, n})
	}
	sort.Slice(cities, func(i, j int) bool {
		if cities[i].n != cities[j].n {
			return cities[i].n > cities[j].n
		}
		return cities[i].name < cities[j].name
	})
	top := cities
	if len(top) > 8 {
		top = top[:8]
	}
	var parts []string
	for _, c := range top {
		parts = append(parts, fmt.Sprintf("%s (%d)", c.name, c.n))
	}
	fmt.Fprintf(&b, "  top locations:        %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(&b, "  countries:            %d\n", len(d.Countries))
	return b.String()
}

// FormatDuration renders a duration with the resolution the paper
// uses in prose (e.g. "4.0 s", "300 ms").
func FormatDuration(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%.1f s", d.Seconds())
	}
	return fmt.Sprintf("%d ms", d.Milliseconds())
}
