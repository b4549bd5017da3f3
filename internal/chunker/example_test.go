package chunker_test

import (
	"fmt"

	"repro/internal/chunker"
)

// ExampleFixed splits content the way Dropbox does (fixed-size
// chunks), showing offsets and lengths: the size alone decides them.
func ExampleFixed() {
	var off int64
	for _, ln := range chunker.Fixed(nil, 10_000, 4096) {
		fmt.Printf("offset %5d len %4d\n", off, ln)
		off += ln
	}
	// Output:
	// offset     0 len 4096
	// offset  4096 len 4096
	// offset  8192 len 1808
}
