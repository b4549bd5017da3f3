package deltaenc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/workload"
)

func roundTrip(t *testing.T, old, new []byte, blockSize int) *Delta {
	t.Helper()
	sig := Sign(old, blockSize)
	d := Compute(sig, new)
	got, err := Patch(old, d)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !bytes.Equal(got, new) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(new))
	}
	return d
}

func TestIdenticalFilesProduceNoLiterals(t *testing.T) {
	rng := sim.NewRNG(1)
	data := workload.Generate(rng, workload.Binary, 100_000)
	d := roundTrip(t, data, data, DefaultBlockSize)
	if lit := d.LiteralBytes(); lit > DefaultBlockSize {
		t.Fatalf("identical files sent %d literal bytes", lit)
	}
	copies := 0
	for _, op := range d.Ops {
		if op.Copy {
			copies++
		}
	}
	if copies < len(data)/DefaultBlockSize-1 {
		t.Fatalf("too few copies: %d", copies)
	}
}

func TestAppendSendsRoughlyAppendedBytes(t *testing.T) {
	// The Fig. 4 "Append" case: adding k bytes at the end should
	// upload ~k bytes regardless of file size.
	rng := sim.NewRNG(2)
	old := workload.Generate(rng, workload.Binary, 1<<20)
	added := workload.Generate(rng, workload.Binary, 100_000)
	new := append(append([]byte{}, old...), added...)
	d := roundTrip(t, old, new, DefaultBlockSize)
	lit := d.LiteralBytes()
	if lit < int64(len(added)) || lit > int64(len(added))+2*DefaultBlockSize {
		t.Fatalf("append literal bytes = %d, want ~%d", lit, len(added))
	}
}

func TestPrependSendsRoughlyAddedBytes(t *testing.T) {
	// Insertion at the beginning shifts all content; only a rolling
	// match (not block-aligned matching) keeps the delta small.
	rng := sim.NewRNG(3)
	old := workload.Generate(rng, workload.Binary, 512<<10)
	added := workload.Generate(rng, workload.Binary, 50_000)
	new := append(append([]byte{}, added...), old...)
	d := roundTrip(t, old, new, DefaultBlockSize)
	lit := d.LiteralBytes()
	if lit < int64(len(added)) || lit > int64(len(added))+2*DefaultBlockSize {
		t.Fatalf("prepend literal bytes = %d, want ~%d (rolling hash must realign)", lit, len(added))
	}
}

func TestRandomInsertion(t *testing.T) {
	rng := sim.NewRNG(4)
	old := workload.Generate(rng, workload.Binary, 1<<20)
	added := workload.Generate(rng, workload.Binary, 100_000)
	mid := len(old) / 3
	new := append(append(append([]byte{}, old[:mid]...), added...), old[mid:]...)
	d := roundTrip(t, old, new, DefaultBlockSize)
	lit := d.LiteralBytes()
	if lit < int64(len(added)) || lit > int64(len(added))+3*DefaultBlockSize {
		t.Fatalf("insert literal bytes = %d, want ~%d", lit, len(added))
	}
}

func TestCompletelyDifferentContent(t *testing.T) {
	rng := sim.NewRNG(5)
	old := workload.Generate(rng, workload.Binary, 100_000)
	new := workload.Generate(rng, workload.Binary, 100_000)
	d := roundTrip(t, old, new, DefaultBlockSize)
	if d.LiteralBytes() != int64(len(new)) {
		t.Fatalf("different content: literal = %d, want full %d", d.LiteralBytes(), len(new))
	}
}

func TestEmptyCases(t *testing.T) {
	rng := sim.NewRNG(6)
	data := workload.Generate(rng, workload.Binary, 10_000)
	roundTrip(t, nil, data, DefaultBlockSize) // create
	roundTrip(t, data, nil, DefaultBlockSize) // truncate to empty
	roundTrip(t, nil, nil, DefaultBlockSize)  // nothing
	roundTrip(t, data, data, 0)               // default block size
}

func TestPatchRejectsWrongOld(t *testing.T) {
	rng := sim.NewRNG(7)
	old := workload.Generate(rng, workload.Binary, 10_000)
	sig := Sign(old, DefaultBlockSize)
	d := Compute(sig, workload.Generate(rng, workload.Binary, 5000))
	if _, err := Patch(old[:100], d); err == nil {
		t.Fatal("Patch accepted wrong old data length")
	}
}

func TestPatchRejectsCorruptCopyOp(t *testing.T) {
	d := &Delta{BlockSize: 16, OldTotal: 16, Ops: []Op{{Copy: true, BlockIndex: 99}}}
	if _, err := Patch(make([]byte, 16), d); err == nil {
		t.Fatal("Patch accepted out-of-range copy")
	}
}

func TestWireSizeAccounting(t *testing.T) {
	rng := sim.NewRNG(8)
	old := workload.Generate(rng, workload.Binary, 100_000)
	d := roundTrip(t, old, old, DefaultBlockSize)
	// 16 bytes of framing, 8 per op, plus the literal bytes.
	if got, want := d.WireSize(), 16+8*int64(len(d.Ops))+d.LiteralBytes(); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
}

// Property: patch(old, compute(sign(old), new)) == new for arbitrary
// old/new and block sizes — the core invariant of the codec.
func TestRoundTripProperty(t *testing.T) {
	rng := sim.NewRNG(9)
	f := func(oldLen, newLen uint16, bsSeed uint8) bool {
		bs := 64 + int(bsSeed)*8
		old := workload.Generate(rng, workload.Binary, int64(oldLen))
		var new []byte
		// Bias towards related content: half the time, derive new
		// from old with an edit.
		if oldLen > 100 && bsSeed%2 == 0 {
			cut := int(oldLen) / 2
			new = append(append([]byte{}, old[:cut]...), workload.Generate(rng, workload.Binary, int64(newLen)%1000)...)
			new = append(new, old[cut:]...)
		} else {
			new = workload.Generate(rng, workload.Binary, int64(newLen))
		}
		sig := Sign(old, bs)
		d := Compute(sig, new)
		got, err := Patch(old, d)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRollingChecksumMatchesDirect(t *testing.T) {
	rng := sim.NewRNG(10)
	data := workload.Generate(rng, workload.Binary, 4096)
	const bs = 512
	var w rolling
	w.init(data[:bs])
	for i := 0; i+bs < len(data); i++ {
		direct := weakSum(data[i : i+bs])
		if w.sum() != direct {
			t.Fatalf("rolling sum diverged at offset %d", i)
		}
		w.roll(data[i], data[i+bs])
	}
}
