package tcpsim

// Fuzz targets for the geometric loss-position sampler (loss.go) and
// for whole transfers driven through it. The sampler's invariants:
// sampled positions advance strictly and never fall behind the loss
// coordinate, p >= 1 loses every round, scripted mode never consults
// the RNG, and the whole process replays bit-identically from the
// same seed. FuzzTransferScript lifts the scripted half to random op
// scripts: replay, byte conservation under loss and monotone op
// timelines.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func FuzzLossGap(f *testing.F) {
	f.Add(0.5, 0.02)
	f.Add(0.0, 0.5)
	f.Add(1e-300, 1e-12)
	f.Add(0.999999, 0.999999)
	f.Add(0.25, 1.0)
	f.Fuzz(func(t *testing.T, u, p float64) {
		if math.IsNaN(u) || math.IsNaN(p) || u < 0 || u >= 1 || p < 0 || p > 1.5 {
			t.Skip("outside the sampler's input domain")
		}
		g := lossGap(u, p)
		if math.IsNaN(g) {
			t.Fatalf("lossGap(%v, %v) = NaN", u, p)
		}
		if g < 0 {
			t.Fatalf("lossGap(%v, %v) = %v, want >= 0", u, p, g)
		}
		if p >= 1 && g != 0 {
			t.Fatalf("lossGap(%v, %v) = %v, want 0: certain loss takes the next segment", u, p, g)
		}
		if !math.IsInf(g, 1) && g != math.Floor(g) {
			t.Fatalf("lossGap(%v, %v) = %v, want an integer gap", u, p, g)
		}
		// The inverse transform is nonincreasing in u: a smaller
		// uniform draw pushes the loss further out.
		if u2 := u / 2; u2 < u {
			if g2 := lossGap(u2, p); g2 < g {
				t.Fatalf("lossGap not monotone: u=%v gives %v but u=%v gives %v", u, g, u2, g2)
			}
		}
	})
}

// lossDialer builds the minimal dialer the loss process needs: a
// network for the RNG and the rate; no traffic is simulated.
func lossDialer(seed int64, p float64) *Dialer {
	n := netem.New(sim.NewClock(), sim.NewRNG(seed))
	n.LossRate = p
	return &Dialer{Net: n}
}

func FuzzLossProcess(f *testing.F) {
	f.Add(int64(1), 0.02, []byte{1, 4, 9, 63, 2})
	f.Add(int64(7), 0.0, []byte{8, 8, 8})
	f.Add(int64(42), 1.0, []byte{1, 2, 3, 4})
	f.Add(int64(-3), 0.999, []byte{255, 0, 17})
	f.Fuzz(func(t *testing.T, seed int64, p float64, rounds []byte) {
		if math.IsNaN(p) || p < 0 || p > 1.5 || len(rounds) > 1024 {
			t.Skip("outside the loss process's input domain")
		}
		d := lossDialer(seed, p)
		prevLoss := math.Inf(-1)
		var lossyRounds int64
		var verdicts []bool
		for _, b := range rounds {
			segs := int64(b%64) + 1
			start := d.lossSeg
			pos := d.nextLossPos()
			if math.IsNaN(pos) {
				t.Fatal("sampled loss position is NaN")
			}
			if pos < float64(start) {
				t.Fatalf("sampled loss position %v behind the loss coordinate %d", pos, start)
			}
			lossy := d.roundLossy(segs)
			verdicts = append(verdicts, lossy)
			if d.lossSeg != start+segs {
				t.Fatalf("loss coordinate advanced %d -> %d, want +%d", start, d.lossSeg, segs)
			}
			if lossy {
				lossyRounds++
				if pos >= float64(d.lossSeg) {
					t.Fatalf("round [%d,%d) lossy but sampled position %v outside it", start, d.lossSeg, pos)
				}
				if pos <= prevLoss {
					t.Fatalf("consumed loss positions not strictly increasing: %v after %v", pos, prevLoss)
				}
				prevLoss = pos
			}
			if p >= 1 && !lossy {
				t.Fatalf("p=%v: round of %d segments not lossy; certain loss must hit every round", p, segs)
			}
			if p == 0 && lossy {
				t.Fatal("p=0: no round may be lossy")
			}
		}
		// One draw per loss event plus at most one outstanding sample:
		// the whole point of the analytic sampler.
		if draws := d.LossDraws(); draws > lossyRounds+1 {
			t.Fatalf("%d RNG draws for %d lossy rounds, want <= lossy+1", draws, lossyRounds)
		}
		// Same seed, same schedule: bit-identical verdicts.
		replay := lossDialer(seed, p)
		for i, b := range rounds {
			if got := replay.roundLossy(int64(b%64) + 1); got != verdicts[i] {
				t.Fatalf("round %d verdict %v on replay, %v first run: process not deterministic", i, got, verdicts[i])
			}
		}
	})
}

func FuzzLossScript(f *testing.F) {
	f.Add([]byte{0, 3, 3, 10}, []byte{4, 4, 4, 4})
	f.Add([]byte{1}, []byte{255, 1})
	f.Add([]byte{}, []byte{8, 8})
	f.Fuzz(func(t *testing.T, gaps, rounds []byte) {
		if len(gaps) > 512 || len(rounds) > 1024 {
			t.Skip("bounding fuzz work")
		}
		// Build a strictly increasing script from cumulative gaps.
		var positions []int64
		pos := int64(0)
		for _, g := range gaps {
			pos += int64(g)
			positions = append(positions, pos)
			pos++
		}
		d := lossDialer(99, 0.5) // nonzero rate: the script must still win
		d.InjectLossPositions(positions)
		cur := 0
		for _, b := range rounds {
			segs := int64(b%64) + 1
			end := d.lossSeg + segs
			want := cur < len(positions) && positions[cur] < end
			if got := d.roundLossy(segs); got != want {
				t.Fatalf("scripted round ending at %d: lossy = %v, want %v (script %v)", end, got, want, positions)
			}
			for cur < len(positions) && positions[cur] < end {
				cur++
			}
		}
		if d.LossDraws() != 0 {
			t.Fatalf("scripted loss consumed %d RNG draws, want 0", d.LossDraws())
		}
	})
}

// transferRun is everything one FuzzTransferScript replay observes.
type transferRun struct {
	marks      []time.Time
	pkts       []trace.Packet
	records    int
	draws      int64
	handshake  [2]int64 // payload per direction after Dial
	wireApp    [2]int64 // Σ wireBytes(n) per direction over the ops
	payload    [2]int64 // expanded data payload per direction at the end
	serverLate bool     // some Send's serverDone preceded its lastSent
}

// replayTransferScript dials path cfg with the loss process pinned to
// the script whose cumulative gaps are losses, then decodes ops three
// bytes at a time — op kind, then a 16-bit size scaled up to ~4 MB —
// into Send, Recv, RequestResponse and Idle calls, and closes.
func replayTransferScript(cfg engineConfig, ops, losses []byte) transferRun {
	c, cap := dialConfig(cfg, 1, 0.5) // non-zero rate: the script must still win
	var script []int64
	pos := int64(0)
	for _, g := range losses {
		pos += int64(g)
		script = append(script, pos)
	}
	c.d.InjectLossPositions(script)

	var r transferRun
	r.handshake = [2]int64{
		cap.Analyze(trace.AllFlows).PayloadUp,
		cap.Analyze(trace.AllFlows).PayloadDown,
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		size := (int64(ops[i+1])<<8 | int64(ops[i+2])) * 64
		switch ops[i] % 4 {
		case 0:
			last, serverDone := c.Send(size)
			r.wireApp[trace.Upstream] += c.wireBytes(size)
			r.serverLate = r.serverLate || serverDone.Before(last)
			r.marks = append(r.marks, last)
		case 1:
			wait := time.Duration(ops[i]>>2) * time.Millisecond
			r.marks = append(r.marks, c.Recv(c.FreeAt().Add(wait), size))
			r.wireApp[trace.Downstream] += c.wireBytes(size)
		case 2:
			req := 200 + size/100
			r.marks = append(r.marks, c.RequestResponse(req, size))
			r.wireApp[trace.Upstream] += c.wireBytes(req)
			r.wireApp[trace.Downstream] += c.wireBytes(size)
		case 3:
			c.Idle(time.Duration(size) * time.Microsecond)
			r.marks = append(r.marks, c.FreeAt())
		}
	}
	r.marks = append(r.marks, c.Close())
	r.pkts = cap.ExpandedPackets()
	r.records = cap.Len()
	r.draws = c.d.LossDraws()
	for _, p := range r.pkts {
		r.payload[p.Dir] += p.Payload
	}
	return r
}

// FuzzTransferScript drives a random op script over a random path
// under a random injected loss script and checks the transfer
// engine's invariants: the replay is bit-identical, loss never breaks
// byte conservation (per direction, the expanded payload is the
// handshake's plus Σ wireBytes of the ops), op completions never move
// backwards, a scripted loss process never draws from the RNG, and a
// trace never expands to fewer records than it stores.
func FuzzTransferScript(f *testing.F) {
	f.Add(uint8(0), []byte{0, 255, 255, 1, 16, 0, 2, 1, 0, 3, 0, 200}, []byte{3, 0, 40, 1})
	f.Add(uint8(1), []byte{0, 0, 16, 0, 4, 0}, []byte{})
	f.Add(uint8(5), []byte{2, 8, 0, 1, 0, 1, 0, 0, 0}, []byte{0, 0, 0, 0})
	f.Add(uint8(6), []byte{0, 1, 0, 4, 64, 0, 0, 3, 0}, []byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, path uint8, ops, losses []byte) {
		if len(ops) > 96 || len(losses) > 512 {
			t.Skip("bounding fuzz work")
		}
		cfg := engineConfigs[int(path)%len(engineConfigs)]
		r := replayTransferScript(cfg, ops, losses)

		again := replayTransferScript(cfg, ops, losses)
		if !reflect.DeepEqual(r, again) {
			t.Fatal("replaying the same script produced a different transfer")
		}
		for dir := range r.payload {
			if want := r.handshake[dir] + r.wireApp[dir]; r.payload[dir] != want {
				t.Fatalf("%s payload %d, want handshake %d + wire bytes %d",
					trace.Direction(dir), r.payload[dir], r.handshake[dir], r.wireApp[dir])
			}
		}
		for i := 1; i < len(r.marks); i++ {
			if r.marks[i].Before(r.marks[i-1]) {
				t.Fatalf("op %d completed at %v, before op %d at %v", i, r.marks[i], i-1, r.marks[i-1])
			}
		}
		if r.serverLate {
			t.Fatal("a Send's server completion preceded its last byte")
		}
		if r.draws != 0 {
			t.Fatalf("scripted loss consumed %d RNG draws", r.draws)
		}
		if len(r.pkts) < r.records {
			t.Fatalf("trace expands to %d records but stores %d", len(r.pkts), r.records)
		}
	})
}
