package httpsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

func TestDoOnceAdvancesMonotonically(t *testing.T) {
	_, _, c, server := testbed(10 * time.Millisecond)
	t1 := c.DoOnce(server, "s", sim.Epoch, 100, 100)
	t2 := c.DoOnce(server, "s", t1, 100, 100)
	if !t2.After(t1) || !t1.After(sim.Epoch) {
		t.Fatalf("times not monotone: %v %v", t1, t2)
	}
}

func TestUploadWithZeroBody(t *testing.T) {
	_, cap, c, server := testbed(0)
	s := c.Open(server, "s", sim.Epoch)
	last, acked := s.Upload(0, 0)
	if acked.Before(last) {
		t.Fatal("ack before last byte")
	}
	// Headers still travel.
	if up := cap.Analyze(trace.AllFlows).PayloadUp; up < DefaultProfile.ReqHeaderBytes {
		t.Fatalf("zero-body upload carried %d bytes", up)
	}
}

func TestSessionConnExposesTransport(t *testing.T) {
	n, cap, c, server := testbed(0)
	s := c.Open(server, "s", sim.Epoch)
	client, _ := n.HostByName("client.sim")
	if got := s.Conn().RTT(); got != n.BaseRTT(client, server) {
		t.Fatalf("session RTT = %v", got)
	}
	if flows := cap.Flows(); len(flows) != 1 || flows[0].ServerName != "s" {
		t.Fatalf("flows = %+v, want one to the dialed name", flows)
	}
}

func TestProfileHeaderSizesRespected(t *testing.T) {
	n, cap, _, server := testbed(0)
	client, _ := n.HostByName("client.sim")
	p := Profile{TLS: DefaultProfile.TLS, ReqHeaderBytes: 1234, RespHeaderBytes: 567}
	c := NewClient(tcpsim.NewDialer(n, cap, client), p)
	s := c.Open(server, "s", sim.Epoch)
	upBefore := cap.Analyze(trace.AllFlows).PayloadUp
	downBefore := cap.Analyze(trace.AllFlows).PayloadDown
	s.Do(0, 0)
	up := cap.Analyze(trace.AllFlows).PayloadUp - upBefore
	down := cap.Analyze(trace.AllFlows).PayloadDown - downBefore
	if up < 1234 || up > 1234+1234/20 {
		t.Fatalf("request bytes = %d, want ~1234", up)
	}
	if down < 567 || down > 567+567/20 {
		t.Fatalf("response bytes = %d, want ~567", down)
	}
}
