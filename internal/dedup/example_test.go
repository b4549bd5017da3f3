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

	_, new1 := store.Put(chunk)
	_, new2 := store.Put(chunk) // the replica
	fmt.Println("first upload needed:", new1)
	fmt.Println("replica needed:     ", new2)

	manifest := dedup.NewManifest()
	manifest.Set("folder/file.bin", []dedup.Hash{dedup.HashBytes(chunk)})
	manifest.Delete("folder/file.bin") // user deletes the file
	// ... and restores it later: the store still has the chunk.
	_, new3 := store.Put(chunk)
	fmt.Println("restore dedups:     ", !new3)
	// Output:
	// first upload needed: true
	// replica needed:      false
	// restore dedups:      true
}
