// Package cryptobox implements convergent client-side encryption, the
// privacy layer Wuala applies before anything leaves the machine.
//
// The paper makes two observations this package must reproduce:
// encryption does not measurably hurt Wuala's synchronization
// performance, and it remains compatible with deduplication — "two
// identical files generate two identical encrypted versions"
// (Sect. 4.3). Convergent encryption achieves the latter by deriving
// the key from the plaintext itself: key = H(plaintext), so equal
// plaintexts encrypt to equal ciphertexts while remaining opaque to
// the provider.
//
// The upload planner reads only DeriveKey: key and ciphertext are both
// injective in the plaintext, so a chunk addressed by its key's hash
// dedups exactly as one addressed by its ciphertext's hash. Encrypt and
// Decrypt stay as the oracle of that equivalence and of the round trip.
package cryptobox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
)

// KeySize is the AES-256 key size.
const KeySize = 32

// Key is a convergent content key.
type Key [KeySize]byte

// DeriveKey computes the convergent key of a plaintext.
func DeriveKey(plain []byte) Key {
	return Key(sha256.Sum256(plain))
}

// Encrypt seals plain with its convergent key using AES-256-CTR. The
// IV is derived from the key, so the whole construction is a pure
// function of the plaintext: Encrypt(p) == Encrypt(q) iff p == q
// (up to hash collisions). Ciphertext length equals plaintext length;
// there is no MAC because the content address already provides
// integrity in the storage protocol.
func Encrypt(plain []byte) ([]byte, Key) {
	key := DeriveKey(plain)
	return crypt(plain, key), key
}

// Decrypt reverses Encrypt given the convergent key.
func Decrypt(ciphertext []byte, key Key) []byte {
	return crypt(ciphertext, key)
}

// crypt applies AES-CTR with the key-derived IV (CTR is an involution).
func crypt(data []byte, key Key) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // fixed, valid key size
	}
	ivSrc := sha256.Sum256(key[:])
	out := make([]byte, len(data))
	cipher.NewCTR(block, ivSrc[:aes.BlockSize]).XORKeyStream(out, data)
	return out
}
