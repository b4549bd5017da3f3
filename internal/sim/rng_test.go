package sim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// filled returns n bytes of r's stream.
func filled(r *RNG, n int) []byte {
	b := make([]byte, n)
	r.Fill(b)
	return b
}

// antithetic reports whether r complements its output stream.
func antithetic(r *RNG) bool { return r.pcg.mask != 0 }

// TestEnginesShareForkDerivation pins that the plain and antithetic
// streams derive child seeds identically, and that Fork creates its
// child with exactly the seed ForkSeed names: descriptor identity
// (kind, seed, size) never depends on which stream described it.
func TestEnginesShareForkDerivation(t *testing.T) {
	p := NewRNG(7)
	a := NewAntitheticRNG(7)
	for label := int64(-3); label < 10; label++ {
		if p.ForkSeed(label) != a.ForkSeed(label) {
			t.Fatalf("fork seed derivation differs at label %d", label)
		}
		if p.Fork(label).Seed() != p.ForkSeed(label) || a.Fork(label).Seed() != p.ForkSeed(label) {
			t.Fatal("Fork seed disagrees with ForkSeed")
		}
	}
}

// TestReseedMatchesFreshSource pins Reseed's contract: a reseeded
// source continues with exactly the stream a fresh source for that
// seed would produce, plain or antithetic, whatever state the source
// was in before.
func TestReseedMatchesFreshSource(t *testing.T) {
	check := func(name string, reseeded, fresh *RNG) {
		t.Helper()
		if reseeded.Seed() != fresh.Seed() {
			t.Fatalf("%s: Seed() = %d, want %d", name, reseeded.Seed(), fresh.Seed())
		}
		for i := 0; i < 100; i++ {
			if reseeded.Int63() != fresh.Int63() {
				t.Fatalf("%s: reseeded stream diverged at draw %d", name, i)
			}
		}
		if !bytes.Equal(filled(reseeded, 100), filled(fresh, 100)) {
			t.Fatalf("%s: reseeded Fill diverged", name)
		}
	}

	pcg := NewRNG(3)
	pcg.Int63() // advance so Reseed must really reset state
	pcg.Reseed(99)
	check("pcg", pcg, NewRNG(99))

	anti := NewAntitheticRNG(3)
	anti.Int63()
	anti.Reseed(99)
	if !antithetic(anti) {
		t.Fatal("Reseed dropped the antithetic mask")
	}
	check("antithetic", anti, NewAntitheticRNG(99))
}

// TestForkInheritsEngine pins that children stay on their parent's
// stream kind — a campaign never silently mixes plain and antithetic
// byte streams.
func TestForkInheritsEngine(t *testing.T) {
	if antithetic(NewRNG(1).Fork(2)) {
		t.Fatal("plain fork became antithetic")
	}
	if !antithetic(NewAntitheticRNG(1).Fork(2)) {
		t.Fatal("antithetic fork lost its mask")
	}
}

// TestPCGDeterminismAndFill pins the PCG stream: same seed, same
// bytes, whether Fill writes a fresh buffer or a reused one.
func TestPCGDeterminismAndFill(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4096, 100_001} {
		want := filled(NewRNG(3), n)
		got := make([]byte, n)
		for i := range got {
			got[i] = byte(i) // stale contents must not leak
		}
		NewRNG(3).Fill(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("Fill(%d) into a reused buffer diverged", n)
		}
	}
}

// TestPCGByteUniformity is a cheap sanity screen on the generator: all
// 256 byte values appear and the mean is near 127.5. (PCG's formal
// statistical properties are established literature; this guards
// against wiring bugs like a truncated output permutation.)
func TestPCGByteUniformity(t *testing.T) {
	b := filled(NewRNG(1), 1<<16)
	var counts [256]int
	var sum float64
	for _, v := range b {
		counts[v]++
		sum += float64(v)
	}
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("byte value %d never appeared in 64 kB", v)
		}
	}
	mean := sum / float64(len(b))
	if mean < 124 || mean > 131 {
		t.Fatalf("byte mean = %.2f, want ~127.5", mean)
	}
}

// TestPCGJitterStaysUniform re-runs the Jitter bound check on the PCG
// engine (sim_test.go covers the generic contract) and screens the
// spread: over many draws both halves of the interval are hit.
func TestPCGJitterStaysUniform(t *testing.T) {
	r := NewRNG(8)
	lo, hi := 0, 0
	for i := 0; i < 10_000; i++ {
		v := r.Jitter(1000, 400)
		if v < 800 || v >= 1200 {
			t.Fatalf("Jitter out of bounds: %d", v)
		}
		if v < 1000 {
			lo++
		} else {
			hi++
		}
	}
	if lo < 4000 || hi < 4000 {
		t.Fatalf("Jitter skewed: %d below, %d above", lo, hi)
	}
}

// BenchmarkFork measures per-child seeding: two SplitMix64 rounds.
func BenchmarkFork(b *testing.B) {
	b.Run("pcg", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			r.Fork(int64(i))
		}
	})
}

// BenchmarkFill measures bulk byte generation (the RNG.Bytes file
// materialisation path).
func BenchmarkFill(b *testing.B) {
	buf := make([]byte, 1<<20)
	b.Run("pcg", func(b *testing.B) {
		r := NewRNG(1)
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			r.Fill(buf)
		}
	})
}

// TestAntitheticComplementsStream pins the antithetic construction:
// the raw 64-bit stream is the bitwise complement of the plain stream,
// so Int63 reflects across the midpoint and Float64 across ~0.5.
func TestAntitheticComplementsStream(t *testing.T) {
	plain := NewRNG(7)
	anti := NewAntitheticRNG(7)
	if !antithetic(anti) || antithetic(plain) {
		t.Fatal("Antithetic flag wrong")
	}
	for i := 0; i < 1000; i++ {
		p := plain.Int63()
		a := anti.Int63()
		if a != (1<<63-1)-p {
			t.Fatalf("draw %d: %d is not the reflection of %d", i, a, p)
		}
	}
	plain, anti = NewRNG(7), NewAntitheticRNG(7)
	var sum float64
	for i := 0; i < 1000; i++ {
		sum += plain.Float64() + anti.Float64()
	}
	// Pair sums are ~1 each (exactly 1-2^-63 per pair up to the
	// Float64 rounding path), so the mean of 1000 pairs is pinned
	// far tighter than either stream's own mean.
	if sum < 999.9 || sum > 1000.1 {
		t.Fatalf("antithetic pair sum = %v, want ~1000", sum)
	}
}

// TestAntitheticForkPropagates checks that children of an antithetic
// source stay antithetic and mirror the plain source's children.
func TestAntitheticForkPropagates(t *testing.T) {
	plain := NewRNG(9).Fork(3).Fork(5)
	anti := NewAntitheticRNG(9).Fork(3).Fork(5)
	if !antithetic(anti) {
		t.Fatal("Fork dropped the antithetic mask")
	}
	if plain.Seed() != anti.Seed() {
		t.Fatal("Fork seed chains diverged")
	}
	for i := 0; i < 100; i++ {
		if anti.Int63() != (1<<63-1)-plain.Int63() {
			t.Fatalf("forked child not antithetic at draw %d", i)
		}
	}
}

// TestAntitheticDeterminism: same seed, same stream — the antithetic
// engine obeys the same reproducibility contract as the others.
func TestAntitheticDeterminism(t *testing.T) {
	a, b := NewAntitheticRNG(42), NewAntitheticRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("antithetic stream not deterministic at draw %d", i)
		}
	}
	buf1, buf2 := make([]byte, 1029), make([]byte, 1029)
	NewAntitheticRNG(42).Fill(buf1)
	NewAntitheticRNG(42).Fill(buf2)
	if !bytes.Equal(buf1, buf2) {
		t.Fatal("antithetic Fill not deterministic")
	}
}

// TestPermIntoMatchesPerm pins PermInto to math/rand's Perm on the
// same PCG state, on the plain stream and on the antithetic one (which
// returns the plain twin's permutation reversed): the same values,
// whatever dst held before, and the same stream position afterwards,
// checked through the next draw.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, -9, 1 << 40} {
		for _, n := range []int{0, 1, 2, 5, 16, 64, 100} {
			ref := rand.New(newPCG(seed)).Perm(n) // math/rand on the plain stream
			ref2 := rand.New(newPCG(seed))
			ref2.Perm(n)
			refNext := ref2.Uint64()
			for _, anti := range []bool{false, true} {
				newRNG, want, wantNext := NewRNG, slices.Clone(ref), refNext
				if anti {
					newRNG, wantNext = NewAntitheticRNG, ^refNext
					slices.Reverse(want)
				}
				into := newRNG(seed)
				dst := make([]int, n)
				for i := range dst {
					dst[i] = -1 - i // stale contents must not leak
				}
				got := into.PermInto(dst)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d n %d anti %v: PermInto %v, want %v", seed, n, anti, got, want)
				}
				if n > 0 && &got[0] != &dst[0] {
					t.Fatalf("seed %d n %d anti %v: PermInto did not fill dst", seed, n, anti)
				}
				if next := into.Uint64(); next != wantNext {
					t.Fatalf("seed %d n %d anti %v: next draw after PermInto %x, want %x", seed, n, anti, next, wantNext)
				}
				if antithetic(into) != anti {
					t.Fatalf("seed %d n %d: PermInto changed the antithetic mask", seed, n)
				}
			}
		}
	}
}

// TestPermIntoDoesNotAllocate pins the point of PermInto: a permutation
// into a caller's buffer costs no allocation.
func TestPermIntoDoesNotAllocate(t *testing.T) {
	for _, r := range []*RNG{NewRNG(3), NewAntitheticRNG(3)} {
		var buf [32]int
		if n := testing.AllocsPerRun(100, func() { r.PermInto(buf[:]) }); n != 0 {
			t.Fatalf("antithetic=%v: PermInto allocates %v times per call", antithetic(r), n)
		}
	}
}
