package cryptobox

import (
	"bytes"
	"testing"
	"testing/quick"

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
