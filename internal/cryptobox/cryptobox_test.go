package cryptobox

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	plain := workload.Generate(rng, workload.Binary, 10_000)
	ct, key := Encrypt(plain)
	back := Decrypt(ct, key)
	if !bytes.Equal(back, plain) {
		t.Fatal("decrypt(encrypt(p)) != p")
	}
}

func TestConvergence(t *testing.T) {
	// The Wuala property: identical plaintexts yield identical
	// ciphertexts, so server-side dedup still works (Sect. 4.3).
	rng := sim.NewRNG(2)
	plain := workload.Generate(rng, workload.Binary, 4096)
	copy1 := append([]byte{}, plain...)
	ct1, k1 := Encrypt(plain)
	ct2, k2 := Encrypt(copy1)
	if !bytes.Equal(ct1, ct2) || k1 != k2 {
		t.Fatal("identical plaintexts produced different ciphertexts")
	}
}

func TestDifferentPlaintextsDiverge(t *testing.T) {
	ct1, _ := Encrypt([]byte("content A"))
	ct2, _ := Encrypt([]byte("content B"))
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different plaintexts produced equal ciphertexts")
	}
}

func TestCiphertextLengthPreserved(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, n := range []int{0, 1, 15, 16, 17, 4096, 100_000} {
		plain := workload.Generate(rng, workload.Binary, int64(n))
		ct, _ := Encrypt(plain)
		if len(ct) != n {
			t.Fatalf("len(ct) = %d for %d-byte plaintext", len(ct), n)
		}
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	// Encrypting highly redundant data must not leave it
	// compressible — that is the whole point of encrypting before
	// upload and why Wuala cannot also compress.
	plain := bytes.Repeat([]byte("AAAA"), 4096)
	ct, _ := Encrypt(plain)
	counts := make(map[byte]int)
	for _, b := range ct {
		counts[b]++
	}
	if len(counts) < 200 {
		t.Fatalf("ciphertext uses only %d distinct byte values", len(counts))
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := sim.NewRNG(4)
	f := func(n uint16) bool {
		plain := workload.Generate(rng, workload.Binary, int64(n))
		ct, key := Encrypt(plain)
		return bytes.Equal(Decrypt(ct, key), plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	plain := []byte("secret content")
	ct, key := Encrypt(plain)
	var wrong Key
	copy(wrong[:], key[:])
	wrong[0] ^= 0xFF
	if bytes.Equal(Decrypt(ct, wrong), plain) {
		t.Fatal("wrong key decrypted successfully")
	}
}

// TestKeyAddressDedupsLikeCiphertext is the oracle of the upload
// planner's encrypted-chunk address: put after put, a chunk addressed
// by the hash of its convergent key gets the dedup verdict it would get
// addressed by the hash of its ciphertext. The seeded sequence repeats
// earlier chunks and mixes in equal-length near-duplicates (one bit
// flipped), the pairs an address that read less than the whole chunk
// would merge. Neither store may learn a plaintext's hash.
func TestKeyAddressDedupsLikeCiphertext(t *testing.T) {
	rng := sim.NewRNG(5)
	byCiphertext, byKey := dedup.NewStore(), dedup.NewStore()
	var seen [][]byte
	hits := 0
	for i := 0; i < 600; i++ {
		var plain []byte
		switch r := rng.Intn(3); {
		case r == 0 && len(seen) > 0:
			plain = seen[rng.Intn(len(seen))]
		case r == 1 && len(seen) > 0:
			plain = bytes.Clone(seen[rng.Intn(len(seen))])
			plain[rng.Intn(len(plain))] ^= 1 << rng.Intn(8)
		default:
			plain = workload.Generate(rng, workload.Binary, 1+rng.Int63n(4096))
		}
		seen = append(seen, plain)

		ct, _ := Encrypt(plain)
		key := DeriveKey(plain)
		n := int64(len(plain))
		newByCiphertext := byCiphertext.PutHashed(dedup.HashBytes(ct), n)
		if newByKey := byKey.PutHashed(dedup.HashBytes(key[:]), n); newByKey != newByCiphertext {
			t.Fatalf("put %d: new by key address = %v, by ciphertext address = %v", i, newByKey, newByCiphertext)
		}
		if !newByCiphertext {
			hits++
		}
	}
	if hits == 0 || byKey.UniqueChunks() == len(seen) {
		t.Fatalf("%d hits, %d unique of %d: the sequence exercised no dedup", hits, byKey.UniqueChunks(), len(seen))
	}
	for _, plain := range seen {
		h := dedup.HashBytes(plain)
		if byCiphertext.Size(h) != 0 || byKey.Size(h) != 0 {
			t.Fatal("a store holds a plaintext content address")
		}
	}
}
