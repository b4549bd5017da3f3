package client

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/compressor"
	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestPlanner(p Profile) *planner {
	return newPlanner(p, dedup.NewStore())
}

func TestPlanFileNoCapabilities(t *testing.T) {
	p := CloudDrive() // no chunking, no compression, no dedup
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(1), workload.Binary, 100_000)
	plan := planRaw(pl, "a.bin", data)
	if len(plan.Units) != 1 {
		t.Fatalf("units = %d, want 1 (no chunking)", len(plan.Units))
	}
	if plan.Units[0] != 100_000 {
		t.Fatalf("bytes = %d, want raw size", plan.Units[0])
	}
	if plan.DedupSkipped != 0 {
		t.Fatal("no dedup for Cloud Drive")
	}
}

func TestPlanFileChunksLargeFiles(t *testing.T) {
	p := Dropbox()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(2), workload.Binary, 9<<20) // 9 MB -> 3 chunks of 4/4/1
	plan := planRaw(pl, "big.bin", data)
	if len(plan.Units) != 3 {
		t.Fatalf("units = %d, want 3 chunks", len(plan.Units))
	}
	for i, raw := range []int64{4 << 20, 4 << 20, 1 << 20} {
		// Compressed random data is slightly larger than raw: DEFLATE
		// stores it, a few header bytes per block.
		if u := plan.Units[i]; u < raw || u > raw+raw/64 {
			t.Fatalf("unit %d: %d wire bytes for a %d-byte random chunk", i, u, raw)
		}
	}
}

func TestPlanFileCompressionShrinksText(t *testing.T) {
	p := Dropbox()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(3), workload.Text, 500_000)
	plan := planRaw(pl, "t.txt", data)
	if got := plan.UploadBytes(); got > 250_000 {
		t.Fatalf("compressed text upload = %d, want < half", got)
	}
}

func TestPlanFileDedupSecondCopy(t *testing.T) {
	p := Dropbox()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(4), workload.Binary, 300_000)
	first := planRaw(pl, "one.bin", data)
	second := planRaw(pl, "two.bin", append([]byte{}, data...))
	if first.UploadBytes() == 0 {
		t.Fatal("first upload empty")
	}
	if len(second.Units) != 0 || second.DedupSkipped != 300_000 {
		t.Fatalf("replica not deduplicated: %+v", second)
	}
}

func TestPlanFileDedupAfterForget(t *testing.T) {
	// ForgetFile drops client state but the store keeps chunks: a
	// restored file dedups (Sect. 4.3 step iv).
	p := Wuala()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(5), workload.Binary, 200_000)
	planRaw(pl, "w.bin", data)
	pl.ForgetFile("w.bin")
	again := planRaw(pl, "w.bin", data)
	if len(again.Units) != 0 {
		t.Fatalf("restore re-uploads %d units", len(again.Units))
	}
}

func TestPlanFileEncryptionStillDedups(t *testing.T) {
	// Convergent encryption: the ciphertext hash of equal chunks is
	// equal, so the replica dedups even though the store only ever
	// sees ciphertext.
	p := Wuala()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(6), workload.Binary, 150_000)
	planRaw(pl, "a.bin", data)
	rep := planRaw(pl, "b.bin", append([]byte{}, data...))
	if len(rep.Units) != 0 {
		t.Fatal("encrypted replica not deduplicated")
	}
	// And the store must NOT contain the plaintext hash.
	if pl.store.Size(dedup.HashBytes(data)) != 0 {
		t.Fatal("store holds plaintext content address — encryption bypassed")
	}
}

func TestPlanFileDeltaOnModification(t *testing.T) {
	p := Dropbox()
	pl := newTestPlanner(p)
	rng := sim.NewRNG(7)
	base := workload.Generate(rng, workload.Binary, 1<<20)
	planRaw(pl, "d.bin", base)
	modified := append(append([]byte{}, base...), workload.Generate(rng, workload.Binary, 50_000)...)
	plan := planRaw(pl, "d.bin", modified)
	up := plan.UploadBytes()
	if up < 45_000 || up > 120_000 {
		t.Fatalf("delta upload = %d, want ~50 kB", up)
	}
}

func TestPlanFileDeltaAfterDedupHit(t *testing.T) {
	// Revision 1's first chunk is a dedup hit (another file stored it
	// first), so it never travels; a modify of that chunk must still
	// delta-encode against it.
	pl := newTestPlanner(Dropbox()) // 4 MB chunks
	rng := sim.NewRNG(11)
	head := workload.Generate(rng, workload.Binary, 4<<20)
	planRaw(pl, "head.bin", head)
	rev1 := append(bytes.Clone(head), workload.Generate(rng, workload.Binary, 100_000)...)
	if plan := planRaw(pl, "f.bin", rev1); plan.DedupSkipped != 4<<20 || len(plan.Units) != 1 {
		t.Fatalf("revision 1: first chunk not a dedup hit: %+v", plan)
	}
	rev2 := bytes.Clone(rev1)
	copy(rev2[1<<20:], workload.Generate(rng, workload.Binary, 1000))
	plan := planRaw(pl, "f.bin", rev2)
	// Chunk 1 is unchanged and dedups; chunk 0 travels as a delta (a
	// block or two of literals plus the copy ops), not as 4 MB.
	if len(plan.Units) != 1 || plan.Units[0] > 50_000 {
		t.Fatalf("modified dedup-hit chunk not delta-encoded: %+v", plan)
	}
}

func TestPlanFileNoDeltaAfterForget(t *testing.T) {
	// A deleted path forgets its revision: a file re-created under it
	// plans as a first revision, with no delta against the old one.
	pl := newTestPlanner(Dropbox())
	data := workload.Generate(sim.NewRNG(12), workload.Binary, 300_000)
	planRaw(pl, "f.bin", data)
	pl.ForgetFile("f.bin")
	again := bytes.Clone(data)
	again[0] ^= 1
	plan := planRaw(pl, "f.bin", again)
	if want := planRaw(newTestPlanner(Dropbox()), "f.bin", again); !reflect.DeepEqual(plan, want) {
		t.Fatalf("re-created file planned against the forgotten revision\n got  %+v\n want %+v", plan, want)
	}
}

func TestPlanFileNoDeltaWithoutPriorRevision(t *testing.T) {
	p := Dropbox()
	pl := newTestPlanner(p)
	data := workload.Generate(sim.NewRNG(8), workload.Binary, 500_000)
	plan := planRaw(pl, "new.bin", data)
	if plan.UploadBytes() < 500_000 {
		t.Fatalf("first revision must travel whole: %d", plan.UploadBytes())
	}
}

func TestPlanFileEmpty(t *testing.T) {
	for _, p := range []Profile{Dropbox(), CloudDrive(), Wuala()} {
		pl := newTestPlanner(p)
		plan := planRaw(pl, "empty.bin", nil)
		if len(plan.Units) != 0 || plan.FileBytes != 0 {
			t.Fatalf("%s: empty file plan: %+v", p.Name, plan)
		}
	}
}

func TestPlanFileDeltaSurvivesCompression(t *testing.T) {
	// Delta literals get compressed: appending compressible text to
	// a text file uploads even less than the appended size.
	p := Dropbox()
	pl := newTestPlanner(p)
	rng := sim.NewRNG(9)
	base := workload.Generate(rng, workload.Text, 1<<20)
	planRaw(pl, "t.txt", base)
	add := workload.Generate(rng, workload.Text, 100_000)
	plan := planRaw(pl, "t.txt", append(append([]byte{}, base...), add...))
	if got := plan.UploadBytes(); got > 60_000 {
		t.Fatalf("compressed delta = %d, want well under 100 kB", got)
	}
}

func TestManifestBytesScalesWithChunks(t *testing.T) {
	if ManifestBytes(0) != 0 {
		t.Fatal("zero chunks")
	}
	if ManifestBytes(10) <= ManifestBytes(1) {
		t.Fatal("manifest must scale")
	}
}

func TestUnitBytesDeltaVsFull(t *testing.T) {
	// Exercise both wire sizes of a chunk: a delta against the
	// previous revision, and the full chunk.
	p := Dropbox()
	p.Compression = compressor.None
	pl := newTestPlanner(p)
	rng := sim.NewRNG(10)
	base := workload.Generate(rng, workload.Binary, 256<<10)
	planRaw(pl, "x.bin", base)
	// Identical re-write: delta should be nearly free.
	plan := planRaw(pl, "x.bin", append([]byte{}, base...))
	if len(plan.Units) != 0 && plan.UploadBytes() > 10_000 {
		t.Fatalf("identical rewrite uploaded %d", plan.UploadBytes())
	}
	if !bytes.Equal(base, base) {
		t.Fatal("unreachable")
	}
}

// planRaw plans eager bytes — the pre-descriptor test entry point.
func planRaw(pl *planner, path string, data []byte) FilePlan {
	return pl.PlanFile(path, workload.BytesContent(data))
}
