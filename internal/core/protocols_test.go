package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

func TestAnalyzeProtocolsSect31(t *testing.T) {
	reports := map[string]ProtocolReport{}
	for _, p := range client.Profiles() {
		reports[p.Service] = AnalyzeProtocols(p, 21)
	}

	// "All clients exchange traffic using HTTPS, with the exception
	// of Dropbox notification protocol ... Interestingly, some Wuala
	// storage operations also use HTTP."
	if !reports["dropbox"].UsesPlainHTTP {
		t.Error("dropbox notifications must run over plain HTTP")
	}
	if got := strings.Join(reports["dropbox"].PlainHTTPNames, " "); !strings.Contains(got, "notify") {
		t.Errorf("dropbox plain-HTTP names = %q, want the notification channel", got)
	}
	for _, svc := range []string{"skydrive", "googledrive", "clouddrive"} {
		if reports[svc].UsesPlainHTTP {
			t.Errorf("%s must be HTTPS-only, saw plain HTTP on %v", svc, reports[svc].PlainHTTPNames)
		}
	}

	// "All services but Wuala use separate servers for control and
	// storage" — in the idle phase Wuala shows a single name; the
	// split services show several.
	if !reports["dropbox"].SplitControlStorage {
		t.Error("dropbox control/storage/notify names must differ")
	}

	// "SkyDrive ... contacts many different Microsoft Live servers
	// during login (13 in this example)."
	if got := reports["skydrive"].LoginServers; got < 12 || got > 14 {
		t.Errorf("skydrive login servers = %d, want 13", got)
	}
	if got := reports["dropbox"].LoginServers; got > 4 {
		t.Errorf("dropbox login servers = %d, want a couple", got)
	}

	// Polling cadences (Sect. 3.1): Wuala ~5 min, Google Drive
	// ~40 s, Dropbox/SkyDrive ~1 min, Cloud Drive 15 s.
	within := func(got, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= want/4
	}
	wantPoll := []struct {
		svc  string
		want time.Duration
	}{
		{"dropbox", time.Minute},
		{"skydrive", time.Minute},
		{"wuala", 5 * time.Minute},
		{"googledrive", 40 * time.Second},
		{"clouddrive", 15 * time.Second},
	}
	for _, w := range wantPoll {
		if got := reports[w.svc].PollInterval; !within(got, w.want) {
			t.Errorf("%s poll interval = %v, want ~%v", w.svc, got, w.want)
		}
	}

	// "polling is done every 15 s, each time opening a new HTTPS
	// connection."
	if !reports["clouddrive"].PollConnPerPoll {
		t.Error("clouddrive must open a connection per poll")
	}
	for _, svc := range []string{"dropbox", "wuala", "googledrive", "skydrive"} {
		if reports[svc].PollConnPerPoll {
			t.Errorf("%s should poll on a persistent channel", svc)
		}
	}
}

func TestWualaStorageUsesPlainHTTP(t *testing.T) {
	// Exercise a storage transfer to see Wuala's port-80 operations.
	m := RunSync(client.Wuala(), fig4SingleBatch(), 22, 0)
	if m.StorageUp == 0 {
		t.Fatal("no storage traffic")
	}
	tb := NewTestbed(client.Wuala(), 22, 0)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	fig4SingleBatch().Materialize(tb.Folder, tb.RNG, t0, "bench")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	sawPort80Storage := false
	for _, f := range tb.Stream.Flows() {
		if f.Key.ServerPort == 80 && !f.OpenedAt.Before(t0) {
			sawPort80Storage = true
		}
	}
	if !sawPort80Storage {
		t.Fatal("Wuala storage operations should run over plain HTTP (Sect. 3.1)")
	}
}

// fig4SingleBatch is the 1x1MB single-file workload of the Wuala
// plain-HTTP check.
func fig4SingleBatch() workload.Batch {
	return workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
}

func TestMedianGap(t *testing.T) {
	base := time.Date(2013, 10, 23, 0, 0, 0, 0, time.UTC)
	ts := []time.Time{base, base.Add(10 * time.Second), base.Add(21 * time.Second), base.Add(30 * time.Second)}
	if got := medianGap(ts); got != 10*time.Second {
		t.Fatalf("medianGap = %v", got)
	}
	if medianGap(ts[:1]) != 0 {
		t.Fatal("single instant must yield 0")
	}
}
