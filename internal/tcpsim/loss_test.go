package tcpsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestLossSlowsTransfers(t *testing.T) {
	completion := func(loss float64) time.Duration {
		n, _, d, server := testbed(zrhCoord(), 30e6, 0)
		n.LossRate = loss
		c := d.Dial(server, "s", sim.Epoch, PlainTCP)
		start := c.FreeAt()
		last, _ := c.Send(10 << 20)
		return last.Sub(start)
	}
	clean := completion(0)
	lossy := completion(0.02)
	heavy := completion(0.08)
	if !(clean < lossy && lossy < heavy) {
		t.Fatalf("loss ordering broken: %v %v %v", clean, lossy, heavy)
	}
	if lossy < clean+clean/10 {
		t.Fatalf("2%% loss too cheap: %v vs %v", lossy, clean)
	}
}

func TestLossPreservesPayloadConservation(t *testing.T) {
	n, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	n.LossRate = 0.05
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	const payload = 5 << 20
	c.Send(payload)
	up := cap.Analyze(trace.AllFlows).PayloadUp
	if up != payload {
		t.Fatalf("payload = %d, want exactly %d (retransmissions are wire-only)", up, payload)
	}
	// Wire bytes exceed the loss-free equivalent: retransmissions.
	wire := cap.Analyze(trace.AllFlows).WireUp
	overheadFree := int64(payload) + int64(segments(payload))*HeaderPerSeg
	if wire <= overheadFree {
		t.Fatalf("no retransmission traffic visible: %d <= %d", wire, overheadFree)
	}
}

func TestLossZeroIsDeterministicallyClean(t *testing.T) {
	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(1 << 20)
	for _, p := range cap.Packets() {
		if p.Wire == MSS+HeaderPerSeg && p.Payload == 0 && !p.Flags.SYN && !p.Flags.FIN {
			t.Fatal("retransmission record without loss")
		}
	}
}
