package tcpsim

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testbed builds a client in Twente and a server at a configurable
// location/rate, jitter-free for exact assertions.
func testbed(serverCoord geo.Coord, rateBps int64, proc time.Duration) (*netem.Network, *trace.Capture, *Dialer, *netem.Host) {
	n := netem.New(sim.NewClock(), sim.NewRNG(1))
	// The testbed access link (1 Gb/s in the paper) is never the
	// bottleneck; model it as uncapped so the server cap governs.
	client := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
		Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
		Coord: serverCoord, RateBps: rateBps, ProcDelay: proc})
	cap := trace.NewCapture()
	return n, cap, NewDialer(n, cap, client), server
}

func zrhCoord() geo.Coord { l, _ := geo.LookupAirport("ZRH"); return l.Coord }
func iadCoord() geo.Coord { l, _ := geo.LookupAirport("IAD"); return l.Coord }

func TestDialHandshakeTiming(t *testing.T) {
	n, cap, d, server := testbed(iadCoord(), 20e6, 0)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)

	at := sim.Epoch
	c := d.Dial(server, "storage.example", at, PlainTCP)
	if got := c.EstablishedAt().Sub(at); got != rtt {
		t.Fatalf("plain TCP established after %v, want %v (1 RTT)", got, rtt)
	}

	c2 := d.Dial(server, "storage.example", at, DefaultTLS)
	if got := c2.EstablishedAt().Sub(at); got != 3*rtt {
		t.Fatalf("TLS established after %v, want %v (3 RTT)", got, 3*rtt)
	}

	// Exactly two client SYNs in the capture.
	//simlint:allow goldendiscipline -- the test issues exactly 2 Dials; a structural count, not a refreshable metric
	if got := cap.Analyze(trace.AllFlows).Connections; got != 2 {
		t.Fatalf("connection count = %d", got)
	}
}

func TestTLSHandshakeBytes(t *testing.T) {
	_, cap, d, server := testbed(iadCoord(), 20e6, 0)
	d.Dial(server, "s", sim.Epoch, DefaultTLS)
	down := cap.Analyze(trace.AllFlows).PayloadDown
	if down < DefaultTLS.CertBytes || down > DefaultTLS.CertBytes+200 {
		t.Fatalf("handshake downstream payload = %d, want ~certBytes", down)
	}
}

func TestSendSmallSingleBurst(t *testing.T) {
	n, _, d, server := testbed(iadCoord(), 20e6, 40*time.Millisecond)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)

	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	start := c.FreeAt()
	lastSent, serverDone := c.Send(5000) // fits in initial cwnd (14600B)
	ser := time.Duration(float64(5000*8) / 20e6 * float64(time.Second))
	if got := lastSent.Sub(start); got != ser {
		t.Fatalf("lastSent after %v, want serialization %v", got, ser)
	}
	if got := serverDone.Sub(lastSent); got != rtt/2+40*time.Millisecond {
		t.Fatalf("serverDone - lastSent = %v, want rtt/2+proc", got)
	}
}

func TestSendSlowStartRounds(t *testing.T) {
	// Huge rate => never rate-limited; pure slow start.
	n, cap, d, server := testbed(iadCoord(), 0, 0)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)

	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	start := c.FreeAt()
	// 100 kB needs cwnd rounds: 14.6k, 29.2k, 58.4k (sum 102.2k) -> 3 bursts,
	// 2 inter-burst RTT waits.
	lastSent, _ := c.Send(100_000)
	if got := lastSent.Sub(start); got != 2*rtt {
		t.Fatalf("slow start 100kB took %v, want 2 RTT", got)
	}
	// Three upstream data records.
	var dataRecs int
	for _, p := range cap.Packets() {
		if p.Dir == trace.Upstream && p.HasPayload() {
			dataRecs++
		}
	}
	if dataRecs != 3 {
		t.Fatalf("data records = %d, want 3", dataRecs)
	}
}

func TestSendRateLimitedThroughput(t *testing.T) {
	// Big transfer on a nearby server: completion ~ n/rate once the
	// window opens.
	_, _, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	start := c.FreeAt()
	var n int64 = 10 << 20 // 10 MB
	lastSent, _ := c.Send(n)
	ideal := time.Duration(float64(n*8) / 30e6 * float64(time.Second))
	got := lastSent.Sub(start)
	if got < ideal || got > ideal+ideal/2 {
		t.Fatalf("10MB took %v, want within 50%% above ideal %v", got, ideal)
	}
}

func TestCwndPersistsAcrossSends(t *testing.T) {
	// Second send on a warm connection must be faster than the first
	// (no slow-start restart in the model).
	_, _, d, server := testbed(iadCoord(), 0, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	s1 := c.FreeAt()
	e1, _ := c.Send(100_000)
	d1 := e1.Sub(s1)
	s2 := c.FreeAt()
	e2, _ := c.Send(100_000)
	d2 := e2.Sub(s2)
	if d2 >= d1 {
		t.Fatalf("warm send %v not faster than cold %v", d2, d1)
	}
}

func TestRecvDeliversAfterHalfRTT(t *testing.T) {
	n, _, d, server := testbed(iadCoord(), 0, 0)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	serverStart := c.FreeAt().Add(time.Second)
	done := c.Recv(serverStart, 1000)
	if got := done.Sub(serverStart); got != rtt/2 {
		t.Fatalf("small Recv delivered after %v, want rtt/2", got)
	}
}

func TestRequestResponse(t *testing.T) {
	n, _, d, server := testbed(iadCoord(), 0, 25*time.Millisecond)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	start := c.FreeAt()
	done := c.RequestResponse(500, 800)
	// 500B up (one burst, no serialization at infinite rate), rtt/2,
	// proc, 800B down, rtt/2.
	want := rtt/2 + rtt/2 + 25*time.Millisecond
	if got := done.Sub(start); got != want {
		t.Fatalf("RequestResponse took %v, want %v", got, want)
	}
}

func TestCloseEmitsFINOnce(t *testing.T) {
	_, cap, d, server := testbed(iadCoord(), 0, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Close()
	c.Close() // idempotent
	fins := 0
	for _, p := range cap.Packets() {
		if p.Flags.FIN {
			fins++
		}
	}
	if fins != 2 { // one up, one down
		t.Fatalf("FIN packets = %d, want 2", fins)
	}
}

func TestByteConservation(t *testing.T) {
	_, cap, d, server := testbed(iadCoord(), 20e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	const n = 1 << 20
	c.Send(n)
	up := cap.Analyze(trace.AllFlows).PayloadUp
	if up != n {
		t.Fatalf("upstream payload = %d, want %d", up, n)
	}
	if down := cap.Analyze(trace.AllFlows).PayloadDown; down != 0 {
		t.Fatalf("downstream payload = %d, want 0", down)
	}
	// Wire overhead exists and is bounded (headers + delayed ACKs ~ 7%).
	wire := cap.Analyze(trace.AllFlows).TotalWire
	if wire <= up || wire > up+up/10 {
		t.Fatalf("wire bytes = %d vs payload %d", wire, up)
	}
}

func TestTLSRecordOverheadCounted(t *testing.T) {
	_, capT, d, server := testbed(iadCoord(), 20e6, 0)
	c := d.Dial(server, "s", sim.Epoch, DefaultTLS)
	handshakeUp := capT.Analyze(trace.AllFlows).PayloadUp
	c.Send(1 << 20)
	up := capT.Analyze(trace.AllFlows).PayloadUp - handshakeUp
	mb := int64(1 << 20)
	want := mb + int64(float64(mb)*0.02)
	if up < want-MSS || up > want+MSS {
		t.Fatalf("TLS payload = %d, want ~%d (2%% record overhead)", up, want)
	}
}

func TestWaitAndIdleAdvanceTimeline(t *testing.T) {
	_, _, d, server := testbed(iadCoord(), 0, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	t0 := c.FreeAt()
	c.Idle(3 * time.Second)
	if got := c.FreeAt().Sub(t0); got != 3*time.Second {
		t.Fatalf("Idle advanced %v", got)
	}
	past := c.FreeAt().Add(-time.Hour)
	c.Wait(past) // must not rewind
	if c.FreeAt().Sub(t0) != 3*time.Second {
		t.Fatal("Wait rewound the timeline")
	}
}

func TestSendZeroAndNegative(t *testing.T) {
	_, _, d, server := testbed(iadCoord(), 0, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	before := c.FreeAt()
	last, _ := c.Send(0)
	if !last.Equal(before) {
		t.Fatal("Send(0) advanced time")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send(-1) did not panic")
		}
	}()
	c.Send(-1)
}

func TestSegmentsZeroBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {MSS, 1}, {MSS + 1, 2}, {10 * MSS, 10}} {
		if got := segments(tc.n); got != tc.want {
			t.Errorf("segments(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if ackWire(0) != 0 {
		t.Errorf("ackWire(0) = %d, want 0", ackWire(0))
	}
}

func TestZeroCertBytesNoPhantomSegments(t *testing.T) {
	// A TLS handshake with an empty certificate chain (session
	// resumption) must not record a phantom data segment or its
	// delayed-ACK wire bytes.
	_, cap, d, server := testbed(iadCoord(), 20e6, 0)
	d.Dial(server, "s", sim.Epoch, TLSConfig{Enabled: true, CertBytes: 0, RecordOverheadPct: 2.0})
	var down, downAck int64
	for _, p := range cap.Packets() {
		if p.Wire == 0 && p.Segments > 0 {
			t.Errorf("phantom segment: %+v", p)
		}
		if p.Dir == trace.Downstream && !p.Flags.SYN {
			down += p.Payload
			downAck += p.AckWire
		}
	}
	// Only the server Finished (60 B) travels downstream, with no
	// delayed ACKs (single segments are acknowledged by the next
	// upstream record in the model).
	if down != 60 {
		t.Errorf("downstream handshake payload = %d, want 60", down)
	}
	if downAck != 0 {
		t.Errorf("downstream delayed-ACK wire = %d, want 0", downAck)
	}
}

func TestDialerPortsWrap(t *testing.T) {
	_, cap, d, server := testbed(iadCoord(), 20e6, 0)
	d.nextPort = clientPortMax
	d.Dial(server, "s", sim.Epoch, PlainTCP)
	d.Dial(server, "s", sim.Epoch, PlainTCP)
	flows := cap.Flows()
	if got := flows[0].Key.ClientPort; got != clientPortMax {
		t.Fatalf("first port = %d, want %d", got, clientPortMax)
	}
	if got := flows[1].Key.ClientPort; got != clientPortBase {
		t.Fatalf("wrapped port = %d, want %d", got, clientPortBase)
	}
	if flows[0].ID == flows[1].ID {
		t.Fatal("flow IDs must stay unique across port reuse")
	}
}

func TestChunkPausesVisibleInTrace(t *testing.T) {
	// Upload 3 chunks with an application wait between them and check
	// the burst detector recovers the chunk size — the Sect. 4.1 test.
	n, cap, d, server := testbed(iadCoord(), 50e6, 40*time.Millisecond)
	client, _ := n.HostByName("client.sim")
	rtt := n.BaseRTT(client, server)

	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	const chunk = 512 << 10
	for i := 0; i < 3; i++ {
		_, serverDone := c.Send(chunk)
		// Per-chunk commit: wait for the server ack round trip.
		c.Wait(serverDone.Add(rtt / 2))
	}
	// Intra-transfer gaps are at most one RTT (ACK clocking); the
	// commit wait adds at least another half RTT plus processing, so
	// a 1.3xRTT threshold separates chunk boundaries cleanly.
	bursts := cap.Bursts(trace.AllFlows, rtt+rtt/3)
	if len(bursts) != 3 {
		t.Fatalf("bursts = %d, want 3 (3 chunks)", len(bursts))
	}
	got := bursts[0].Bytes
	if got < chunk || got > chunk+chunk/10 {
		t.Fatalf("first chunk size from trace = %d, want ~%d", got, chunk)
	}
}
