package httpsim

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

func testbed(proc time.Duration) (*netem.Network, *trace.Capture, *Client, *netem.Host) {
	n := netem.New(sim.NewClock(), sim.NewRNG(1))
	client := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
		Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	zrh, _ := geo.LookupAirport("ZRH")
	server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
		Coord: zrh.Coord, RateBps: 30e6, ProcDelay: proc})
	cap := trace.NewCapture()
	return n, cap, NewClient(tcpsim.NewDialer(n, cap, client), DefaultProfile), server
}

func TestSessionDoHeaderAccounting(t *testing.T) {
	_, cap, c, server := testbed(0)
	s := c.Open(server, "api.example", sim.Epoch)
	base := cap.Analyze(trace.AllFlows).PayloadUp
	s.Do(1000, 2000)
	up := cap.Analyze(trace.AllFlows).PayloadUp - base
	// 600 header + 1000 body, +2% TLS records.
	wantMin, wantMax := int64(1600), int64(1600)+int64(1600)*3/100
	if up < wantMin || up > wantMax {
		t.Fatalf("request bytes = %d, want [%d,%d]", up, wantMin, wantMax)
	}
}

func TestUploadReturnsBothInstants(t *testing.T) {
	n, _, c, server := testbed(30 * time.Millisecond)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)
	s := c.Open(server, "storage.example", sim.Epoch)
	lastSent, acked := s.Upload(50_000, 100)
	if !acked.After(lastSent) {
		t.Fatal("acked must come after lastSent")
	}
	// Ack lag is at least one RTT (propagation both ways) + processing.
	if lag := acked.Sub(lastSent); lag < rtt/2+30*time.Millisecond {
		t.Fatalf("ack lag = %v, too small", lag)
	}
}

func TestDoOnceOpensAndClosesConnection(t *testing.T) {
	_, cap, c, server := testbed(0)
	c.DoOnce(server, "poll.example", sim.Epoch, 200, 300)
	c.DoOnce(server, "poll.example", sim.Epoch.Add(15*time.Second), 200, 300)
	if got := cap.Analyze(trace.AllFlows).Connections; got != 2 {
		t.Fatalf("connections = %d, want 2 (one per poll)", got)
	}
	fins := 0
	for _, p := range cap.Packets() {
		if p.Flags.FIN && p.Dir == trace.Upstream {
			fins++
		}
	}
	if fins != 2 {
		t.Fatalf("client FINs = %d, want 2", fins)
	}
}

func TestPersistentSessionReusesConnection(t *testing.T) {
	_, cap, c, server := testbed(0)
	s := c.Open(server, "api.example", sim.Epoch)
	for i := 0; i < 10; i++ {
		s.Do(100, 100)
	}
	if got := cap.Analyze(trace.AllFlows).Connections; got != 1 {
		t.Fatalf("connections = %d, want 1 (keep-alive)", got)
	}
}

func TestPollingCostAsymmetry(t *testing.T) {
	// The Fig. 1 phenomenon: per-poll fresh HTTPS connections cost an
	// order of magnitude more than keep-alive polling.
	_, capA, c1, serverA := testbed(0)
	s := c1.Open(serverA, "poll.example", sim.Epoch)
	at := sim.Epoch
	for i := 0; i < 16; i++ { // 16 polls on one session
		at = at.Add(time.Minute)
		s.Conn().Wait(at)
		s.Do(150, 150)
	}
	keepAlive := capA.Analyze(trace.AllFlows).TotalWire

	_, capB, c2, serverB := testbed(0)
	at = sim.Epoch
	for i := 0; i < 16; i++ {
		at = at.Add(time.Minute)
		c2.DoOnce(serverB, "poll.example", at, 150, 150)
	}
	perConn := capB.Analyze(trace.AllFlows).TotalWire

	// Fresh TLS per poll costs several times more; Cloud Drive's
	// order-of-magnitude Fig. 1 gap additionally comes from its 4x
	// higher poll frequency, exercised in the client-level tests.
	if perConn < 3*keepAlive {
		t.Fatalf("per-connection polling %d B not >> keep-alive %d B", perConn, keepAlive)
	}
}

func TestPlainHTTPProfile(t *testing.T) {
	n, cap, _, server := testbed(0)
	client, _ := n.HostByName("client.sim")
	plain := Profile{TLS: tcpsim.PlainTCP, ReqHeaderBytes: 400, RespHeaderBytes: 250}
	c := NewClient(tcpsim.NewDialer(n, cap, client), plain)
	s := c.Open(server, "notify.example", sim.Epoch)
	s.Do(0, 0)
	// No TLS: handshake contributes no payload, only the HTTP headers do.
	up := cap.Analyze(trace.AllFlows).PayloadUp
	if up != int64(plain.ReqHeaderBytes) {
		t.Fatalf("plain HTTP upstream payload = %d, want %d", up, plain.ReqHeaderBytes)
	}
	//simlint:allow goldendiscipline -- 80 is the well-known HTTP port, protocol structure not an engine metric
	if key := cap.Flow(0).Key; key.ServerPort != 80 {
		t.Fatalf("plain HTTP on port %d, want 80", key.ServerPort)
	}
}
