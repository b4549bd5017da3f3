package tcpsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/goldenfile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// transferGolden is one pinned transfer script outcome: the instant
// every op completed at (ns since sim.Epoch), the number of per-round
// records the trace expands to, a digest over those records, and the
// application bytes the script carried each way.
type transferGolden struct {
	MarksNs   []int64 `json:"marks_ns"`
	Records   int     `json:"expanded_records"`
	Digest    string  `json:"expanded_sha256"`
	BytesUp   int64   `json:"bytes_up"`
	BytesDown int64   `json:"bytes_down"`
}

// transferCase is one golden input: a path, a network seed and loss
// rate, an optional injected loss script, and the op script to drive.
type transferCase struct {
	name   string
	cfg    engineConfig
	seed   int64
	loss   float64
	inject bool
	script []int64
	run    func(c *Conn) (marks []time.Time, up, down int64)
}

// sendOps returns an op script of plain uploads, recording each
// Send's (lastSent, serverDone) pair.
func sendOps(sizes ...int64) func(c *Conn) ([]time.Time, int64, int64) {
	return func(c *Conn) (marks []time.Time, up, down int64) {
		for _, n := range sizes {
			last, serverDone := c.Send(n)
			marks = append(marks, last, serverDone)
			up += n
		}
		return marks, up, 0
	}
}

// replayOps returns the random op script replayScript draws from seed.
func replayOps(seed int64) func(c *Conn) ([]time.Time, int64, int64) {
	return func(c *Conn) ([]time.Time, int64, int64) { return replayScript(c, rand.New(rand.NewSource(seed))) }
}

// transferCases enumerates every golden input: random op scripts on
// clean paths and under injected loss scripts over all
// profile-representative paths, certain loss (p = 1), a scripted loss
// inside the final burst (and its loss-free twin), and a scripted loss
// that carries over into the next transfer on the same connection.
func transferCases() []transferCase {
	var cases []transferCase
	for _, cfg := range engineConfigs {
		for seed := int64(0); seed < 12; seed++ {
			cases = append(cases, transferCase{
				name: fmt.Sprintf("clean/%s/%d", cfg.name, seed),
				cfg:  cfg, seed: seed + 1, run: replayOps(seed),
			})
		}
	}
	for _, cfg := range engineConfigs {
		for seed := int64(0); seed < 8; seed++ {
			cases = append(cases, transferCase{
				name: fmt.Sprintf("injected/%s/%d", cfg.name, seed),
				// A non-zero LossRate must be ignored while scripted.
				cfg: cfg, seed: seed + 1, loss: 0.5,
				inject: true, script: lossScriptFor(rand.New(rand.NewSource(seed * 7))),
				run: replayOps(seed),
			})
		}
	}
	for _, cfg := range []engineConfig{engineConfigs[1], engineConfigs[5]} {
		cases = append(cases, transferCase{
			name: "certain-loss/" + cfg.name,
			cfg:  cfg, seed: 1, loss: 1, run: sendOps(300 << 10),
		})
	}
	cases = append(cases,
		transferCase{name: "final-burst/loss", cfg: finalBurstConfig, seed: 1,
			inject: true, script: []int64{2}, run: sendOps(5000)},
		transferCase{name: "final-burst/clean", cfg: finalBurstConfig, seed: 1,
			inject: true, run: sendOps(5000)},
		transferCase{name: "carry-over", cfg: finalBurstConfig, seed: 1,
			inject: true, script: []int64{100}, run: sendOps(5000, 1<<20)},
	)
	return cases
}

// packetsDigest hashes every field of every record.
func packetsDigest(pkts []trace.Packet) string {
	h := sha256.New()
	for _, p := range pkts {
		fmt.Fprintf(h, "%d %d %d %t %t %t %t %d %d %d %d %d %d %d\n",
			p.Time.Sub(sim.Epoch), p.Flow, p.Dir,
			p.Flags.SYN, p.Flags.ACK, p.Flags.FIN, p.Flags.RST,
			p.Payload, p.Wire, p.Segments, p.AckWire,
			p.Slices, p.SliceBytes, p.SliceGap)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runTransferCase replays one case on a fresh testbed and checks the
// structural invariants every case must satisfy.
func runTransferCase(t *testing.T, tc transferCase) transferGolden {
	t.Helper()
	c, cap := dialConfig(tc.cfg, tc.seed, tc.loss)
	if tc.inject {
		c.d.InjectLossPositions(tc.script)
	}
	marks, up, down := tc.run(c)

	pkts := cap.ExpandedPackets()
	if cap.ExpandedLen() != len(pkts) {
		t.Fatalf("%s: ExpandedLen %d != %d expanded records", tc.name, cap.ExpandedLen(), len(pkts))
	}
	if tc.inject && c.d.LossDraws() != 0 {
		t.Fatalf("%s: scripted loss consumed %d RNG draws", tc.name, c.d.LossDraws())
	}
	if tc.loss >= 1 && countRetransmitRecords(cap) == 0 {
		t.Fatalf("%s: no retransmissions at p=1", tc.name)
	}
	g := transferGolden{
		Records: len(pkts), Digest: packetsDigest(pkts),
		BytesUp: up, BytesDown: down,
	}
	for _, m := range marks {
		g.MarksNs = append(g.MarksNs, int64(m.Sub(sim.Epoch)))
	}
	return g
}

// TestGoldenTransfers pins the transfer engine over clean op scripts,
// injected loss scripts and the certain-loss, final-burst and
// carry-over edge cases: op timelines, expanded records and byte
// counters must reproduce testdata/golden_transfers.json exactly.
//
// The committed values were captured at commit af08b52 from the
// per-round event loop — the reference engine that simulated every
// congestion round and slice one by one — and the closed-form engine
// reproduced every case before that loop was deleted. The file is
// therefore an independent oracle for the closed form, not a snapshot
// of it; a sanctioned refresh (scripts/regen-golden.sh) replaces it
// with the closed form's own output.
func TestGoldenTransfers(t *testing.T) {
	got := map[string]transferGolden{}
	for _, tc := range transferCases() {
		got[tc.name] = runTransferCase(t, tc)
	}
	goldenfile.Check(t, transfersGolden, got)
}

const transfersGolden = "testdata/golden_transfers.json"

// checkTransferFamily replays the golden cases whose name starts with
// prefix and compares each against its entry in the committed golden
// file, so a drift is reported against the family it belongs to.
func checkTransferFamily(t *testing.T, prefix string) {
	t.Helper()
	var want map[string]transferGolden
	goldenfile.Load(t, transfersGolden, &want)
	n := 0
	for _, tc := range transferCases() {
		if !strings.HasPrefix(tc.name, prefix) {
			continue
		}
		n++
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%s: no entry in %s", tc.name, transfersGolden)
			continue
		}
		got, _ := json.Marshal(runTransferCase(t, tc))
		exp, _ := json.Marshal(w)
		if !bytes.Equal(got, exp) {
			t.Errorf("%s: drift from the event loop's capture\n got: %s\nwant: %s", tc.name, got, exp)
		}
	}
	if n == 0 {
		t.Fatalf("no golden cases named %s*", prefix)
	}
}

// TestAnalyticMatchesEventLoop checks the closed-form engine against
// the per-round event loop's captured output for random op scripts on
// every profile-representative clean path.
func TestAnalyticMatchesEventLoop(t *testing.T) { checkTransferFamily(t, "clean/") }

// TestInjectedLossExactEquivalence checks scripted loss against the
// event loop's capture: the same op marks, records and byte counters,
// with no RNG draw consumed (runTransferCase asserts the latter).
func TestInjectedLossExactEquivalence(t *testing.T) { checkTransferFamily(t, "injected/") }

// TestCertainLossMatchesEventLoop checks p = 1 against the event
// loop's capture; runTransferCase also requires retransmissions.
func TestCertainLossMatchesEventLoop(t *testing.T) { checkTransferFamily(t, "certain-loss/") }
