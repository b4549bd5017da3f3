// Command tracedump captures and inspects benchmark traces. It is a
// packet-level tool: before the client starts, it registers a
// recorder over the whole run on the testbed's streaming trace, a
// trace.Capture that keeps the packets the campaign engine's fold
// discards. The capture stores steady-state transfers as span records
// (one record per run of uniform rate-limited slices); the summaries
// report both the stored record count and the per-round packet count
// the spans stand for, so the span-record reduction is visible from
// the CLI.
//
// Run a synchronization experiment and save its packet trace:
//
//	tracedump -service dropbox -files 100 -size 10000 -out run.trace
//
// Summarize a previously saved trace (capinfos-style):
//
//	tracedump -in run.trace
//
// Per-flow record accounting (records vs expanded packets vs spans):
//
//	tracedump -service skydrive -files 1 -size 8000000 -flows
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		service = flag.String("service", "dropbox", "service to trace")
		files   = flag.Int("files", 100, "number of files in the batch")
		size    = flag.Int64("size", 10_000, "bytes per file")
		seed    = flag.Int64("seed", 42, "random seed")
		out     = flag.String("out", "", "write the trace to this file")
		in      = flag.String("in", "", "summarize this trace file instead of running")
		flows   = flag.Bool("flows", false, "print the per-flow record-count summary instead of the capinfos view")
	)
	flag.Parse()

	if *in != "" {
		if err := summarize(*in, *flows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	p, ok := client.ProfileFor(*service)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown service %q\n", *service)
		os.Exit(2)
	}
	batch := workload.Batch{Count: *files, Size: *size, Kind: workload.Binary}
	if err := batch.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tb := core.NewTestbed(p, *seed, 0)
	rec := tb.Stream.AddRecorder(time.Time{})
	start := tb.Settle()
	batch.Materialize(tb.Folder, tb.RNG, tb.Clock.Now(), "bench")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)

	if *out == "" {
		printAny(rec, *flows)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records (%d packets) on %d flows to %s\n",
		rec.Len(), rec.ExpandedLen(), rec.NumFlows(), *out)
}

func summarize(path string, flows bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cap, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}
	printAny(cap, flows)
	return nil
}

func printAny(cap *trace.Capture, flows bool) {
	if flows {
		printFlowSummary(cap)
		return
	}
	printSummary(cap)
}

func printSummary(cap *trace.Capture) {
	pkts := cap.Packets()
	fmt.Printf("records:        %d stored (%d span aggregates)\n", cap.Len(), cap.SpanCount())
	fmt.Printf("packets:        %d after span expansion\n", cap.ExpandedLen())
	fmt.Printf("flows:          %d\n", cap.NumFlows())
	a := cap.Analyze(trace.AllFlows)
	fmt.Printf("connections:    %d client-initiated\n", a.Connections)
	fmt.Printf("bytes total:    %d on the wire\n", a.TotalWire)
	fmt.Printf("bytes up/down:  %d / %d payload\n", a.PayloadUp, a.PayloadDown)
	if len(pkts) > 0 {
		// A trailing span's last slice, not its first, ends the trace.
		last := pkts[0].End()
		for _, p := range pkts {
			if e := p.End(); e.After(last) {
				last = e
			}
		}
		fmt.Printf("span:           %s\n", last.Sub(pkts[0].Time))
	}
	fmt.Println("\nper-server-name totals:")
	byName := map[string]int64{}
	flowBytes := cap.FlowBytes()
	for _, fl := range cap.Flows() {
		byName[fl.ServerName] += flowBytes[fl.ID]
	}
	for _, fl := range cap.Flows() {
		if v, ok := byName[fl.ServerName]; ok {
			fmt.Printf("  %-32s %d bytes\n", fl.ServerName, v)
			delete(byName, fl.ServerName)
		}
	}
}

// printFlowSummary reports, per flow, how many records the capture
// stores against how many per-round packets they stand for — the
// observable win of span aggregation, flow by flow.
func printFlowSummary(cap *trace.Capture) {
	type acc struct {
		records, packets, spans int
		wire                    int64
	}
	perFlow := make([]acc, cap.NumFlows())
	for _, p := range cap.Packets() {
		a := &perFlow[p.Flow]
		a.records++
		a.packets += p.SliceCount()
		if p.IsSpan() {
			a.spans++
		}
		a.wire += p.Wire + p.AckWire
	}
	fmt.Printf("%-6s %-32s %10s %10s %8s %12s\n", "flow", "server", "records", "packets", "spans", "wire bytes")
	var tot acc
	for _, fl := range cap.Flows() {
		a := perFlow[fl.ID]
		fmt.Printf("%-6d %-32s %10d %10d %8d %12d\n",
			fl.ID, fl.ServerName, a.records, a.packets, a.spans, a.wire)
		tot.records += a.records
		tot.packets += a.packets
		tot.spans += a.spans
		tot.wire += a.wire
	}
	fmt.Printf("%-6s %-32s %10d %10d %8d %12d\n", "total", "", tot.records, tot.packets, tot.spans, tot.wire)
	if tot.records > 0 {
		fmt.Printf("\nspan aggregation: %.1fx fewer records than per-round packets\n",
			float64(tot.packets)/float64(tot.records))
	}
}
