package compressor

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDeflateSizeMatchesFlate runs one reused kernel state through a
// fixed sequence of inputs and checks every size against the real
// level-6 stream (deflateLen). The sequence covers every content kind;
// the sizes around the hash minimum, the first window fill, the
// window slide point (65274) and a stored block's limit; maximum-length
// matches; maximum offsets; and, cumulatively, more than maxHashOffset
// bytes, so the reused state crosses the hash-offset rebase. A planted
// copy checks that a niceLength match ends the search, and four
// families reach block choices the rest rarely decide: narrow
// alphabets (long runs of unused code lengths in the dynamic header),
// 4-byte matches at exactly 4096 bytes (the farthest flate takes),
// short far matches planted in random data (extra bits tip the choice
// between a stored and a Huffman block) and short texts (dynamic and
// fixed Huffman costs tie).
func TestDeflateSizeMatchesFlate(t *testing.T) {
	if testing.Short() {
		t.Skip("deflates about 25 MB")
	}
	var d deflateSizer
	total := 0
	check := func(name string, data []byte) {
		t.Helper()
		total += len(data)
		if got, want := d.size(data), deflateLen(t, data); got != want {
			t.Fatalf("%s, %d bytes: counted %d, flate writes %d", name, len(data), got, want)
		}
	}

	rng := sim.NewRNG(29)
	for _, k := range workload.Kinds {
		content := workload.Generate(rng, k, 4<<20+1)
		for n := 0; n <= 300; n++ {
			check(k.String(), content[:n])
		}
		for _, n := range []int{4095, 4096, 32767, 32768, 32769, 65273, 65274, 65275, 65535, 65536, 65537, 1 << 20, len(content)} {
			check(k.String(), content[:n])
		}
	}

	for _, n := range []int{1, 4, 258, 259, 262, 100_000} {
		check("one byte", bytes.Repeat([]byte{'a'}, n))
	}
	random := workload.Generate(rng, workload.Binary, 32769)
	for _, period := range []int{32767, 32768, 32769} {
		check(fmt.Sprintf("period %d", period), bytes.Repeat(random[:period], 4))
	}

	// A 128-byte match (niceLength) ends the chain walk even though an
	// older copy matches for 200 bytes.
	s := random[:200]
	cut := slices.Concat(random[1000:3000], s, random[3000:4000], s[:128], []byte{^s[128]}, random[4000:5000], s)
	check("nice-length cut", cut)

	for n := 110; n <= 125; n++ {
		b := make([]byte, 5000)
		for i := range b {
			b[i] = byte(rng.Intn(n))
		}
		check(fmt.Sprintf("alphabet of %d", n), b)
	}
	for k := range 8 {
		b := make([]byte, 12<<10)
		for i := range b {
			b[i] = byte(rng.Intn(64))
		}
		for j := 100 + k; j < 8000; j += 997 {
			copy(b[j+4096:j+4100], b[j:j+4])
			b[j+4100] = b[j+4] + 1
		}
		check("4-byte matches at 4096", b)
	}
	for k := 0; k <= 80; k += 2 {
		b := make([]byte, 36<<10)
		rng.Fill(b)
		for i := range k {
			p := 24<<10 + 100 + i*90
			copy(b[p:p+5], b[p-20000:p-19995])
			b[p+5] = b[p-19995] + 1
		}
		check(fmt.Sprintf("%d planted far matches", k), b)
	}
	for range 3000 {
		b := make([]byte, 8+rng.Intn(300))
		m := 2 + rng.Intn(64)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(m))
		}
		check("short text", b)
	}

	if total <= maxHashOffset {
		t.Fatalf("sequence deflated %d bytes, want more than %d", total, maxHashOffset)
	}
}

// fuzzSizer is the one kernel state FuzzDeflateSize reuses across
// inputs, so stale hash entries of earlier inputs are in play.
var fuzzSizer deflateSizer

// FuzzDeflateSize checks the kernel against the real level-6 stream on
// a reused state for any payload: kind<<10 bytes of generated content
// of kind kind%4, followed by data repeated repeat+1 times, which
// gives the matcher long runs at the period of data; payloads stop at
// 1 MiB.
func FuzzDeflateSize(f *testing.F) {
	f.Add([]byte("hello, hello, hello"), uint16(0), uint8(0))
	f.Add([]byte{0}, uint16(999), uint8(1))
	f.Add([]byte("the quick brown fox"), uint16(300), uint8(64))
	f.Add([]byte{0xFF, 0xD8, 0xFF, 0xE0}, uint16(7), uint8(130))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint16, kind uint8) {
		const limit = 1 << 20
		k := workload.Kinds[int(kind)%len(workload.Kinds)]
		payload := workload.Generate(sim.NewRNG(int64(kind)), k, int64(kind)<<10)
		for i := 0; i <= int(repeat) && len(data) > 0 && len(payload) < limit; i++ {
			payload = append(payload, data...)
		}
		payload = payload[:min(len(payload), limit)]
		if got, want := fuzzSizer.size(payload), deflateLen(t, payload); got != want {
			t.Fatalf("%d bytes: counted %d, flate writes %d", len(payload), got, want)
		}
	})
}
