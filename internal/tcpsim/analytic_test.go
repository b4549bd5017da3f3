package tcpsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// engineConfig mirrors one service data-center path from
// cloud/services.go: geography (RTT), per-connection rate cap,
// processing delay and TLS mode.
type engineConfig struct {
	name    string
	coord   geo.Coord
	rateBps int64
	proc    time.Duration
	tls     TLSConfig
}

// engineConfigs covers the five profiles' transport diversity:
// Dropbox San Jose (50 Mb/s, far), SkyDrive Seattle (3 Mb/s, far),
// Wuala Nuremberg (35 Mb/s, near), Google edge (26 Mb/s, very near),
// Cloud Drive Dublin (15 Mb/s, mid), plus an uncapped path (pure slow
// start) and a plain-HTTP Wuala storage path.
var engineConfigs = []engineConfig{
	{"dropbox-sanjose", geo.Coord{Lat: 37.34, Lon: -121.89}, 50e6, 35 * time.Millisecond, DefaultTLS},
	{"skydrive-seattle", geo.Coord{Lat: 47.45, Lon: -122.31}, 3e6, 60 * time.Millisecond, DefaultTLS},
	{"wuala-nuremberg", geo.Coord{Lat: 49.45, Lon: 11.08}, 35e6, 25 * time.Millisecond, DefaultTLS},
	{"google-edge", geo.Coord{Lat: 52.31, Lon: 4.76}, 26e6, 130 * time.Millisecond, DefaultTLS},
	{"clouddrive-dublin", geo.Coord{Lat: 53.34, Lon: -6.27}, 15e6, 55 * time.Millisecond, DefaultTLS},
	{"uncapped", geo.Coord{Lat: 39.04, Lon: -77.49}, 0, 40 * time.Millisecond, DefaultTLS},
	{"wuala-plain-http", geo.Coord{Lat: 47.38, Lon: 8.54}, 35e6, 25 * time.Millisecond, PlainTCP},
}

// dialConfig builds a fresh testbed for one path config — network RNG
// seeded with seed, segment loss rate loss — and dials its server at
// sim.Epoch, recording into a buffering capture.
func dialConfig(cfg engineConfig, seed int64, loss float64) (*Conn, *trace.Capture) {
	n := netem.New(sim.NewClock(), sim.NewRNG(seed))
	n.LossRate = loss
	client := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
		Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
		Coord: cfg.coord, RateBps: cfg.rateBps, ProcDelay: cfg.proc})
	cap := trace.NewCapture()
	return NewDialer(n, cap, client).Dial(server, cfg.name, sim.Epoch, cfg.tls), cap
}

// replayScript drives one random operation sequence against a
// connection and returns the instants every op completed at.
func replayScript(c *Conn, rng *rand.Rand) []time.Time {
	var marks []time.Time
	ops := 3 + rng.Intn(8)
	for i := 0; i < ops; i++ {
		// Sizes from sub-cwnd to multi-MB: slow-start-only, mixed, and
		// deep steady-state transfers.
		size := int64(1 + rng.Intn(1<<22))
		if rng.Intn(4) == 0 {
			size = int64(1 + rng.Intn(8000))
		}
		switch rng.Intn(4) {
		case 0:
			last, serverDone := c.Send(size)
			marks = append(marks, last, serverDone)
		case 1:
			done := c.Recv(c.FreeAt().Add(time.Duration(rng.Intn(50))*time.Millisecond), size)
			marks = append(marks, done)
		case 2:
			done := c.RequestResponse(200+size/100, size)
			marks = append(marks, done)
		case 3:
			c.Idle(time.Duration(rng.Intn(200)) * time.Millisecond)
			marks = append(marks, c.FreeAt())
		}
	}
	marks = append(marks, c.Close())
	return marks
}

// rerecord returns a capture holding cap's flows and its records
// expanded into per-round slices: the trace a slice-by-slice transfer
// would have recorded.
func rerecord(cap *trace.Capture) *trace.Capture {
	out := trace.NewCapture()
	for _, f := range cap.Flows() {
		out.OpenFlow(f.Key, f.ServerName, f.OpenedAt)
	}
	for _, p := range cap.ExpandedPackets() {
		out.Record(p)
	}
	return out
}

// TestAnalyticWindowEquivalence cuts windows straight through the
// middle of span records and checks every analysis against the same
// run re-recorded slice by slice: boundary expansion must attribute
// each slice to the same window the per-round records fall in.
func TestAnalyticWindowEquivalence(t *testing.T) {
	cfg := engineConfigs[0] // 50 Mb/s far path: long steady-state spans
	spans := 0
	for seed := int64(0); seed < 8; seed++ {
		a, capA := dialConfig(cfg, seed+1, 0)
		rng := rand.New(rand.NewSource(seed))
		replayScript(a, rng)
		spans += capA.SpanCount()
		capB := rerecord(capA)

		pkts := capB.Packets()
		lastT := pkts[len(pkts)-1].Time
		span := lastT.Sub(sim.Epoch)
		cuts := [][2]time.Time{
			{sim.Epoch, trace.FarFuture},
			{sim.Epoch.Add(span / 3), sim.Epoch.Add(2 * span / 3)},
			{sim.Epoch.Add(span / 2), trace.FarFuture},
			{sim.Epoch.Add(span * 9 / 10), sim.Epoch.Add(span)},
		}
		for i := 0; i < 6; i++ {
			lo := time.Duration(rng.Int63n(int64(span) + 1))
			hi := lo + time.Duration(rng.Int63n(int64(span-lo)+1))
			cuts = append(cuts, [2]time.Time{sim.Epoch.Add(lo), sim.Epoch.Add(hi)})
		}
		for _, cut := range cuts {
			wa := capA.Window(cut[0], cut[1])
			wb := capB.Window(cut[0], cut[1])
			ga, gb := wa.Analyze(trace.AllFlows), wb.Analyze(trace.AllFlows)
			if ga.Packets != gb.Packets || ga.TotalWire != gb.TotalWire ||
				ga.WireUp != gb.WireUp || ga.WireDown != gb.WireDown ||
				ga.PayloadUp != gb.PayloadUp || ga.PayloadDown != gb.PayloadDown ||
				ga.HasPayload != gb.HasPayload || ga.Connections != gb.Connections {
				t.Fatalf("seed %d window [%v,%v): analyses diverge\n spans  %+v\n slices %+v",
					seed, cut[0], cut[1], ga, gb)
			}
			if ga.HasPayload && (!ga.FirstPayload.Equal(gb.FirstPayload) || !ga.LastPayload.Equal(gb.LastPayload)) {
				t.Fatalf("seed %d window [%v,%v): payload bracket [%v,%v] vs [%v,%v]",
					seed, cut[0], cut[1], ga.FirstPayload, ga.LastPayload, gb.FirstPayload, gb.LastPayload)
			}
			ea, eb := wa.ExpandedPackets(), wb.Packets()
			if len(ea) != len(eb) {
				t.Fatalf("seed %d window [%v,%v): %d vs %d expanded records", seed, cut[0], cut[1], len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("seed %d window [%v,%v): record %d differs\n spans  %+v\n slices %+v",
						seed, cut[0], cut[1], i, ea[i], eb[i])
				}
			}
		}
	}
	if spans == 0 {
		t.Fatal("no script recorded a span record; the windows cut nothing")
	}
}

// TestSteadyStateCollapsesToSpan pins the point of the closed form: a
// deep rate-limited transfer is one span record — at least 10x fewer
// Sink.Record calls than the per-BDP-slice records it expands to. On
// the 30 Mb/s Zurich path, handshake and transfer together take
// exactly 10 Sink.Record calls.
func TestSteadyStateCollapsesToSpan(t *testing.T) {
	cfg := engineConfig{"zurich", geo.Coord{Lat: 47.38, Lon: 8.54}, 30e6, 0, DefaultTLS}
	a, capA := dialConfig(cfg, 1, 0)
	a.Send(16 << 20)
	if capA.SpanCount() == 0 {
		t.Fatal("16 MB steady-state transfer emitted no span record")
	}
	if capA.Len()*10 > capA.ExpandedLen() {
		t.Fatalf("recorded %d records for %d slices — want >=10x reduction",
			capA.Len(), capA.ExpandedLen())
	}
	if got := capA.Len(); got != 10 {
		t.Fatalf("16 MB loss-free transfer took %d Sink.Record calls, want 10", got)
	}
}

// TestLossyPathUsesAnalyticEngine pins that a lossy transfer runs the
// closed-form engine: the clean runs between sampled losses collapse
// into span records, and the loss process draws once per loss event
// (plus one pending sample), never once per round.
func TestLossyPathUsesAnalyticEngine(t *testing.T) {
	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	d.Net.LossRate = 0.02
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(8 << 20)
	if got := cap.SpanCount(); got == 0 {
		t.Fatal("lossy transfer recorded no span records — clean runs between losses should collapse")
	}
	if cap.Len() >= cap.ExpandedLen() {
		t.Fatalf("recorded %d records for %d slices — spans should collapse them", cap.Len(), cap.ExpandedLen())
	}
	if draws, retransmits := d.LossDraws(), countRetransmitRecords(cap); draws > retransmits+1 {
		t.Fatalf("%d RNG draws for %d loss events, want <= loss events + 1", draws, retransmits)
	}
}

// TestClosedConnectionRefusesTraffic pins the Close/Abort guard: a
// FIN'd or reset flow must never silently emit traffic again.
func TestClosedConnectionRefusesTraffic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a closed connection did not panic", name)
			}
		}()
		f()
	}
	_, _, d, server := testbed(iadCoord(), 20e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(1000)
	c.Close()
	c.Close() // Close stays idempotent
	mustPanic("Send", func() { c.Send(1) })
	mustPanic("Recv", func() { c.Recv(c.FreeAt(), 1) })
	mustPanic("RequestResponse", func() { c.RequestResponse(1, 1) })
	mustPanic("SendUntil", func() { c.SendUntil(1, c.FreeAt().Add(time.Second)) })

	c2 := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c2.Abort()
	mustPanic("Send after Abort", func() { c2.Send(1) })
}
