package dedup_test

import (
	"fmt"

	"repro/internal/dedup"
)

// ExampleStore walks the paper's Sect. 4.3 deduplication scenario:
// the second copy of a chunk never travels, and the chunk survives in
// the store after the client deletes the file locally.
func ExampleStore() {
	store := dedup.NewStore()
	chunk := []byte("the same four-megabyte chunk, abridged")
	h, size := dedup.HashBytes(chunk), int64(len(chunk))

	new1 := store.PutHashed(h, size)
	new2 := store.PutHashed(h, size) // the replica
	fmt.Println("first upload needed:", new1)
	fmt.Println("replica needed:     ", new2)

	// The user deletes the file locally and restores it later: the
	// store still has the chunk.
	new3 := store.PutHashed(h, size)
	fmt.Println("restore dedups:     ", !new3)
	// Output:
	// first upload needed: true
	// replica needed:      false
	// restore dedups:      true
}
