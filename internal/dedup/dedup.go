// Package dedup implements content-addressed chunk storage and the
// client-side deduplication protocol (Sect. 4.3).
//
// Clients that deduplicate (Dropbox, Wuala) hash every chunk before
// upload and ask the server which hashes it already stores; only
// missing chunks travel. Because the server store is content-addressed
// and never garbage-collected during an experiment, deduplication keeps
// working even after the user deletes and later restores a file — the
// behaviour the paper's fourth test step verifies.
package dedup

import (
	"crypto/sha256"
	"encoding/hex"
)

// Hash is the content address of a chunk.
type Hash [sha256.Size]byte

// String returns the hex form (handy in test failures).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// HashBytes computes the content address of a chunk.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// HashSize is the wire size of one content address as carried in
// deduplication manifests.
const HashSize = sha256.Size
