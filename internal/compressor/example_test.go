package compressor_test

import (
	"bytes"
	"fmt"

	"repro/internal/compressor"
)

// ExampleTransmitSize contrasts the three policies of Sect. 4.5 on a
// fake JPEG — a file with a JPEG header but compressible text inside,
// the probe the paper used to expose Google Drive's magic-number check.
func ExampleTransmitSize() {
	fake := append([]byte{0xFF, 0xD8, 0xFF, 0xE0}, bytes.Repeat([]byte("text "), 2000)...)
	raw := int64(len(fake))

	always := compressor.TransmitSize(compressor.Always, fake)
	smart := compressor.TransmitSize(compressor.Smart, fake)
	never := compressor.TransmitSize(compressor.None, fake)

	fmt.Println("always compresses:", always < raw)
	fmt.Println("smart is fooled:  ", smart == raw)
	fmt.Println("none passes through:", never == raw)
	// Output:
	// always compresses: true
	// smart is fooled:   true
	// none passes through: true
}
