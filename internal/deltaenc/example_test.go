package deltaenc_test

import (
	"bytes"
	"fmt"

	"repro/internal/deltaenc"
)

// Example shows the full delta-encoding cycle: sign the old revision,
// compute a delta against the new one, and patch the old data back
// into the new. Only the modified bytes travel.
func Example() {
	old := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	new := append(append([]byte{}, old...), []byte("appended tail")...)

	sig := deltaenc.Sign(old, 2048)
	delta := deltaenc.Compute(sig, new)
	restored, err := deltaenc.Patch(old, delta)
	if err != nil {
		panic(err)
	}

	fmt.Println("round trip ok:", bytes.Equal(restored, new))
	fmt.Println("literal bytes:", delta.LiteralBytes())
	fmt.Println("wire bytes:", delta.WireSize())
	// Output:
	// round trip ok: true
	// literal bytes: 13
	// wire bytes: 101
}
