// Package workload generates the benchmark file sets and manages the
// virtual synchronized folder.
//
// The paper's testing application creates files "at run-time, e.g.,
// text files composed of random words from a dictionary, images with
// random pixels, or random binary files" (Sect. 2) and manipulates
// them in the folder watched by the client under test. The three
// compression benchmarks (Fig. 5) additionally need fake JPEGs: JPEG
// extension and header, text body.
//
// Generated files are not byte slices but Descriptors — the (Kind,
// Seed, Size) recipe that deterministically reproduces the content. A
// folder file's Content takes one of three forms: lazy (a Descriptor),
// spliced (a Descriptor with bytes inserted at one offset, which is
// what Folder.Append and Folder.InsertAt make of a generated file, so
// the Sect. 4.4 edits stay lazy too) and eager (plain bytes, for files
// the script writes and for edits of anything but a plain
// descriptor). Lazy and spliced content materialise only when a
// consumer actually needs bytes (content-defined chunking, hashing,
// DEFLATE), writing into reusable buffers; capability-poor clients
// plan whole uploads of generated files without a single content byte
// ever existing.
package workload

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Kind selects a generated file type.
type Kind int

const (
	// Text is highly compressible dictionary text (Fig. 5a).
	Text Kind = iota
	// Binary is incompressible random bytes (Fig. 5b and the
	// performance benchmarks of Sect. 5).
	Binary
	// FakeJPEG has a JPEG header but a text body (Fig. 5c).
	FakeJPEG
	// PixelImage is an image of random pixels: a real bitmap
	// header followed by incompressible pixel data.
	PixelImage
)

// Kinds lists every generated file type, for property tests and
// exhaustive sweeps.
var Kinds = []Kind{Text, Binary, FakeJPEG, PixelImage}

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case Binary:
		return "binary"
	case FakeJPEG:
		return "fake-jpeg"
	case PixelImage:
		return "pixel-image"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ext returns the file extension used for the kind.
func (k Kind) Ext() string {
	switch k {
	case Text:
		return ".txt"
	case Binary:
		return ".bin"
	case FakeJPEG, PixelImage:
		return ".jpg"
	default:
		return ".dat"
	}
}

// dictionary is the word list for Text files: enough variety for
// realistic DEFLATE ratios (~3-4x), repeated enough to compress well.
var dictionary = strings.Fields(`
the quick brown fox jumps over lazy dog measurement internet cloud
storage service benchmark synchronization capability architecture
performance overhead traffic protocol chunk bundle compress encode
delta duplicate encrypt folder client server control transfer upload
download experiment repetition workload latency bandwidth capacity
network packet connection session handshake virginia oregon ireland
dublin seattle singapore zurich nuremberg france twente torino europe
provider amazon google microsoft dropbox wuala drive paper figure
table result design choice implication user file batch size time
second minute metric startup completion ratio percent megabyte
kilobyte system methodology active passive vantage resolver airport
`)

// Generate produces size bytes of the given kind using rng. The
// output length is exactly size for every kind.
func Generate(rng *sim.RNG, kind Kind, size int64) []byte {
	return AppendContent(make([]byte, 0, size), rng, kind, size)
}

// AppendContent appends exactly size generated bytes of the given kind
// to dst and returns the extended slice. It is the allocation-free core
// of Generate: descriptors materialise through it into pooled buffers,
// so no intermediate strings.Builder or per-kind copy ever exists.
func AppendContent(dst []byte, rng *sim.RNG, kind Kind, size int64) []byte {
	if size < 0 {
		panic(fmt.Sprintf("workload: negative size %d", size))
	}
	switch kind {
	case Text:
		return appendText(dst, rng, size)
	case Binary:
		return appendRandom(dst, rng, size)
	case FakeJPEG:
		return appendFakeJPEG(dst, rng, size)
	case PixelImage:
		return appendPixelImage(dst, rng, size)
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", int(kind)))
	}
}

// grow extends dst by n bytes (reallocating at most once) and returns
// the extended slice; the new bytes are uninitialised beyond Go's
// zeroing and are always overwritten by the caller.
func grow(dst []byte, n int64) []byte {
	need := len(dst) + int(n)
	if cap(dst) < need {
		nd := make([]byte, need, need+need/4)
		copy(nd, dst)
		return nd
	}
	return dst[:need]
}

// appendRandom appends n random bytes straight from the generator —
// on the PCG engine a word-copy loop, no intermediate buffer.
func appendRandom(dst []byte, rng *sim.RNG, n int64) []byte {
	off := len(dst)
	dst = grow(dst, n)
	rng.Fill(dst[off:])
	return dst
}

func appendText(dst []byte, rng *sim.RNG, size int64) []byte {
	base := int64(len(dst))
	col := 0
	for int64(len(dst))-base < size {
		w := dictionary[rng.Intn(len(dictionary))]
		dst = append(dst, w...)
		col += len(w) + 1
		if col > 72 {
			dst = append(dst, '\n')
			col = 0
		} else {
			dst = append(dst, ' ')
		}
	}
	return dst[:base+size]
}

// jpegHeader is a minimal structurally plausible JPEG prefix: SOI,
// APP0/JFIF, and the start of a quantization table marker.
var jpegHeader = []byte{
	0xFF, 0xD8, // SOI
	0xFF, 0xE0, 0x00, 0x10, 'J', 'F', 'I', 'F', 0x00, // APP0/JFIF
	0x01, 0x01, 0x00, 0x00, 0x48, 0x00, 0x48, 0x00, 0x00,
	0xFF, 0xDB, 0x00, 0x43, 0x00, // DQT marker
}

func appendFakeJPEG(dst []byte, rng *sim.RNG, size int64) []byte {
	if size <= int64(len(jpegHeader)) {
		return append(dst, jpegHeader[:size]...)
	}
	dst = append(dst, jpegHeader...)
	return appendText(dst, rng, size-int64(len(jpegHeader)))
}

// bmpHeaderSize is the BITMAPFILEHEADER+BITMAPINFOHEADER size.
const bmpHeaderSize = 54

func appendPixelImage(dst []byte, rng *sim.RNG, size int64) []byte {
	if size <= bmpHeaderSize {
		var h [bmpHeaderSize]byte
		bmpHeader(h[:], 0, 0, size)
		return append(dst, h[:size]...)
	}
	pixels := size - bmpHeaderSize
	// Lay pixels out as a wide single-row 24-bit image. The trailing
	// pixels%3 bytes are padding after the last whole pixel; the file
	// still carries exactly `size` bytes, and the header says so.
	width := pixels / 3
	var h [bmpHeaderSize]byte
	bmpHeader(h[:], int(width), 1, size)
	dst = append(dst, h[:]...)
	return appendRandom(dst, rng, pixels)
}

// bmpHeader writes a BITMAPFILEHEADER+BITMAPINFOHEADER for a w x h
// 24-bit image into hdr. fileSize is the actual emitted file length —
// header plus all pixel (and padding) bytes — not w*h*3 recomputed,
// which under-reported by pixels%3 bytes whenever the pixel area was
// not divisible by 3.
func bmpHeader(hdr []byte, w, h int, fileSize int64) {
	hdr[0], hdr[1] = 'B', 'M'
	putU32 := func(off int, v uint32) {
		hdr[off] = byte(v)
		hdr[off+1] = byte(v >> 8)
		hdr[off+2] = byte(v >> 16)
		hdr[off+3] = byte(v >> 24)
	}
	putU32(2, uint32(fileSize)) // file size: what is actually emitted
	putU32(10, bmpHeaderSize)   // pixel data offset
	putU32(14, 40)              // info header size
	putU32(18, uint32(w))
	putU32(22, uint32(h))
	hdr[26] = 1  // planes
	hdr[28] = 24 // bpp
}

// bufPool recycles materialisation buffers across files, repetitions
// and worker goroutines: a campaign repetition materialises at most a
// handful of files at a time, so a small shared pool removes the
// per-file multi-MB allocation entirely. Buffers are handed out with
// length 0; content generation appends into them.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// GetBuffer returns a zero-length buffer with capacity at least n from
// the shared materialisation pool. Return it with PutBuffer once no
// live data aliases it — the planner does so at the end of each plan,
// after hashes, signatures and sizes have been extracted.
func GetBuffer(n int64) []byte {
	b := *bufPool.Get().(*[]byte)
	if int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b []byte) {
	b = b[:0]
	bufPool.Put(&b)
}
