package compressor

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// contents returns payloads that exercise both cache tiers (below and
// above sizeCacheMinLen) and both compressibility extremes.
func contents(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	random := make([]byte, 64<<10)
	rng.Read(random)
	text := make([]byte, 64<<10)
	words := []byte("the quick brown fox jumps over the lazy dog ")
	for i := range text {
		text[i] = words[i%len(words)]
	}
	small := make([]byte, 512)
	rng.Read(small)
	return map[string][]byte{"random": random, "text": text, "small": small}
}

// TestTransmitSizeCacheExact proves the (hash -> size) cache is
// invisible: repeated calls — cold, warm, and after mutation of an
// unrelated buffer — return exactly the uncached DEFLATE count.
func TestTransmitSizeCacheExact(t *testing.T) {
	all := contents(t)
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := all[name]
		want := countDeflate(data)
		for i := 0; i < 3; i++ {
			if got := TransmitSize(Always, data); got != want {
				t.Fatalf("%s call %d: TransmitSize = %d, want %d", name, i, got, want)
			}
		}
		// Equal content in a different allocation must hit the same
		// entry and the same size.
		clone := append([]byte(nil), data...)
		if got := TransmitSize(Always, clone); got != want {
			t.Fatalf("%s clone: TransmitSize = %d, want %d", name, got, want)
		}
		// Different content must not collide with the cached entry.
		clone[len(clone)/2] ^= 0xFF
		if got, direct := TransmitSize(Always, clone), countDeflate(clone); got != direct {
			t.Fatalf("%s mutated: TransmitSize = %d, want %d", name, got, direct)
		}
	}
}

// TestTransmitSizeCacheConcurrent hammers both caches from many
// goroutines over a shared content set — the campaign engine's access
// pattern, where parallel repetitions re-plan equal chunks and
// Dropbox (Always) and Google Drive (Smart) cells race to fill the
// same keyed entries. Run with -race (CI does) to prove the locking.
func TestTransmitSizeCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, 16<<10+i)
		rng.Read(payloads[i])
	}
	copy(payloads[0], []byte{0xFF, 0xD8, 0xFF, 0xE0}) // sniffs as JPEG
	var want [3][8]int64
	for _, p := range []Policy{Always, Smart} {
		for k, data := range payloads {
			want[p][k] = TransmitSize(p, data)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(payloads)
				p := Policy(1 + (g+i/len(payloads))%2) // Always or Smart
				data := payloads[k]
				key := keyFor(4, k, data)
				if TransmitSize(Always, data) != want[Always][k] ||
					TransmitSizeKeyed(p, key, int64(len(data)), func() []byte { return data }) != want[p][k] {
					errc <- nil
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if len(errc) > 0 {
		t.Fatal("concurrent TransmitSize or TransmitSizeKeyed returned a wrong size")
	}
}

// entries counts both generations of a memo.
func entries[K comparable, V any](m *memo[K, V]) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.cur) + len(m.prev)
}

// TestSizeCacheReset proves the hash cache keeps an entry through
// sizeCacheMaxEntries later insertions, never grows past two
// generations, and stays exact throughout.
func TestSizeCacheReset(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	probe := make([]byte, sizeCacheMinLen)
	rng.Read(probe)
	want := countDeflate(probe)
	if got := TransmitSize(Always, probe); got != want {
		t.Fatalf("probe = %d, want %d", got, want)
	}
	buf := make([]byte, sizeCacheMinLen)
	for i := 0; i < sizeCacheMaxEntries; i++ {
		rng.Read(buf)
		TransmitSize(Always, buf)
	}
	if n, ok := hashSizes.get(sha256.Sum256(probe)); !ok || n != want {
		t.Fatalf("probe entry after %d insertions = %d, %v; want %d, true", sizeCacheMaxEntries, n, ok, want)
	}
	if n := entries(&hashSizes); n > 2*sizeCacheMaxEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", n, 2*sizeCacheMaxEntries)
	}
	if got := TransmitSize(Always, probe); got != want {
		t.Fatalf("probe after rotation = %d, want %d", got, want)
	}
}

// keyedPayloads are the payload kinds the planner keys: incompressible
// random bytes, dictionary text, and a fake JPEG (JPEG header, text
// body) that Smart skips but Always shrinks.
func keyedPayloads() map[string][]byte {
	return map[string][]byte{
		"random":   workload.Generate(sim.NewRNG(5), workload.Binary, 40_000),
		"text":     workload.Generate(sim.NewRNG(6), workload.Text, 40_000),
		"fakejpeg": workload.Generate(sim.NewRNG(7), workload.FakeJPEG, 40_000),
	}
}

// keyFor gives each test payload a key no planner descriptor uses.
func keyFor(test uint32, i int, data []byte) ContentKey {
	n := int64(len(data))
	return ContentKey{Gen: 0xC0DE0000 | test, Seed: int64(i), Size: n, Len: n}
}

// TestTransmitSizeKeyedExact proves the policy-free keyed entry answers
// every policy exactly as TransmitSize does, cold and warm, whichever policy
// fills the entry first: a Smart-filled fake-JPEG entry must still
// deflate for Always, and an Always-filled one must still skip for
// Smart.
func TestTransmitSizeKeyedExact(t *testing.T) {
	orders := [][]Policy{{Smart, Always, None}, {Always, Smart, None}, {None, Always, Smart}}
	all := keyedPayloads()
	for pi, name := range []string{"fakejpeg", "random", "text"} {
		data := all[name]
		for oi, order := range orders {
			key := keyFor(1, pi*len(orders)+oi, data)
			for pass := 0; pass < 2; pass++ {
				for _, p := range order {
					want := TransmitSize(p, data)
					got := TransmitSizeKeyed(p, key, int64(len(data)), func() []byte { return data })
					if got != want {
						t.Fatalf("%s order %v pass %d: %v = %d, want %d", name, order, pass, p, got, want)
					}
				}
			}
		}
	}
}

// TestTransmitSizeKeyedShared proves the two compressing policies
// share one entry: the second policy on a key materialises the payload
// only when the first did not record what it needs — Smart's skip of a
// sniffed payload leaves no deflated size for Always.
func TestTransmitSizeKeyedShared(t *testing.T) {
	all := keyedPayloads()
	cases := []struct {
		payload string
		first   Policy
		then    Policy
		calls   int
	}{
		{"random", Always, Smart, 1},
		{"random", Smart, Always, 1},
		{"fakejpeg", Always, Smart, 1},
		{"fakejpeg", Smart, Always, 2},
	}
	for i, c := range cases {
		data := all[c.payload]
		calls := 0
		fetch := func() []byte { calls++; return data }
		key := keyFor(2, i, data)
		TransmitSizeKeyed(c.first, key, int64(len(data)), fetch)
		TransmitSizeKeyed(c.then, key, int64(len(data)), fetch)
		if calls != c.calls {
			t.Errorf("%s %v then %v: data() called %d times, want %d", c.payload, c.first, c.then, calls, c.calls)
		}
	}
}

// TestTransmitSizeKeyedRetention proves a keyed entry survives
// sizeCacheMaxEntries later distinct keys — the reuse distance the
// Fig. 6 matrix needs between services — and that the keyed cache
// stays within two generations and does evict eventually.
func TestTransmitSizeKeyedRetention(t *testing.T) {
	// Smart on a sniffed payload caches the verdict without a DEFLATE,
	// keeping thousands of insertions cheap.
	jpeg := []byte{0xFF, 0xD8, 0xFF, 0xE0, 0, 0, 0, 0}
	calls := 0
	fetch := func() []byte { calls++; return jpeg }
	lookup := func(i int) {
		if got := TransmitSizeKeyed(Smart, keyFor(3, i, jpeg), int64(len(jpeg)), fetch); got != int64(len(jpeg)) {
			t.Fatalf("key %d: size %d, want %d", i, got, len(jpeg))
		}
	}
	for i := 0; i <= sizeCacheMaxEntries; i++ {
		lookup(i)
	}
	calls = 0
	lookup(0)
	lookup(sizeCacheMaxEntries)
	if calls != 0 {
		t.Fatalf("%d of the oldest and latest keys missed after %d insertions", calls, sizeCacheMaxEntries)
	}
	for i := sizeCacheMaxEntries + 1; i <= 3*sizeCacheMaxEntries; i++ {
		lookup(i)
	}
	if n := entries(&keyedSizes); n > 2*sizeCacheMaxEntries {
		t.Fatalf("keyed cache grew to %d entries, bound is %d", n, 2*sizeCacheMaxEntries)
	}
	calls = 0
	lookup(0)
	if calls != 1 {
		t.Fatal("key 0 still cached after three generations of insertions: the cache is unbounded")
	}
}
