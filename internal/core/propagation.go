package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PropagationResult measures end-to-end synchronization between two
// devices of the same account: device A uploads, device B is notified
// and downloads. The paper studies the upload half in depth; this is
// the natural extension that the methodology supports unchanged,
// since every phase is visible in the trace.
type PropagationResult struct {
	Service string
	// Upload is from the file event to A's commit.
	Upload time.Duration
	// Notify is from A's commit to B learning about the change
	// (push for Dropbox's long-poll channel, next poll otherwise).
	Notify time.Duration
	// Download is from B learning to B holding all bytes.
	Download time.Duration
	// Total is the file-event-to-second-device latency.
	Total time.Duration
}

// RunPropagation runs the two-device experiment for one service.
func RunPropagation(p client.Profile, batch workload.Batch, seed int64) PropagationResult {
	tb := NewTestbed(p, seed, 0)

	// Device B: a second test computer in the same campus network.
	hostB := tb.Net.AddHost(&netem.Host{
		Name:  "testpc-b.utwente.sim",
		Addr:  "130.89.0.2",
		Coord: geo.Coord{Lat: TwenteCoord.Lat, Lon: TwenteCoord.Lon},
	})
	clientB := client.New(client.Config{
		Profile: p, Deploy: tb.Deploy, Net: tb.Net, Host: hostB,
		Cap: tb.Cap, DNS: tb.DNS, RNG: sim.NewRNG(seed + 1),
	})

	start := tb.Settle()
	bLogin := clientB.Login(start)
	tb.Clock.AdvanceTo(bLogin)
	t0 := tb.Clock.Now().Add(10 * time.Second)
	tb.Clock.AdvanceTo(t0)

	// Device A uploads.
	batch.Materialize(tb.Folder, tb.RNG, t0, "shared")
	res := tb.Client.SyncChanges(tb.Folder, t0.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)

	// Device B is notified, then downloads.
	notified := clientB.NextNotification(res.Done)
	downloaded := clientB.Download(res.Plans, notified)
	tb.Clock.AdvanceTo(downloaded)

	return PropagationResult{
		Service:  p.Service,
		Upload:   res.Done.Sub(t0),
		Notify:   notified.Sub(res.Done),
		Download: downloaded.Sub(notified),
		Total:    downloaded.Sub(t0),
	}
}
