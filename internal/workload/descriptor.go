package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Descriptor is the complete recipe for one generated file's content:
// materialising (Kind, Seed, Size) always yields the same bytes,
// across forks, worker counts and processes. Files
// created from descriptors stay lazy — the benchmark plans uploads,
// keys compression size caches and sizes transfers off the descriptor
// alone, and only materialises when a consumer genuinely needs bytes
// (content-defined chunking, hashing, DEFLATE on a cache miss).
type Descriptor struct {
	Kind Kind
	Seed int64
	Size int64
}

// Describe captures the descriptor for Generate(rng, kind, size). The
// rng must be freshly created or freshly forked: a descriptor names a
// whole child stream by its seed, so a source that has already been
// drawn from would materialise differently than Generate would.
func Describe(rng *sim.RNG, kind Kind, size int64) Descriptor {
	return describe(rng.Seed(), kind, size)
}

// describe is Describe for the stream a seed names.
func describe(seed int64, kind Kind, size int64) Descriptor {
	if size < 0 {
		panic(fmt.Sprintf("workload: negative size %d", size))
	}
	return Descriptor{Kind: kind, Seed: seed, Size: size}
}

// AppendTo appends the descriptor's exact Size bytes to dst and
// returns the extended slice. Pass a pooled buffer (GetBuffer) to
// materialise without allocating.
func (d Descriptor) AppendTo(dst []byte) []byte {
	return AppendContent(dst, sim.NewRNG(d.Seed), d.Kind, d.Size)
}

// Bytes materialises the descriptor into a fresh buffer.
func (d Descriptor) Bytes() []byte {
	return d.AppendTo(make([]byte, 0, d.Size))
}

// String labels the descriptor for test failures.
func (d Descriptor) String() string {
	return fmt.Sprintf("%s(seed=%d,size=%d)", d.Kind, d.Seed, d.Size)
}

// Content is what a folder file holds: either eager bytes (files built
// or edited by the workload script) or a lazy Descriptor (generated
// benchmark files). The distinction is what lets capability-poor
// clients plan a whole upload without the content ever existing, and
// lets the compressor key its size cache on descriptor identity
// instead of hashing megabytes.
//
// Content values are immutable by convention: the byte slice behind an
// eager Content is never modified after creation, so Contents may be
// copied and shared freely (Folder.Copy, tombstones).
type Content struct {
	desc Descriptor
	data []byte
	lazy bool
}

// BytesContent wraps eager bytes. The caller must not modify b
// afterwards.
func BytesContent(b []byte) Content { return Content{data: b} }

// DescriptorContent wraps a lazy descriptor.
func DescriptorContent(d Descriptor) Content { return Content{desc: d, lazy: true} }

// Lazy reports whether the content is descriptor-backed and not yet
// materialised.
func (c Content) Lazy() bool { return c.lazy }

// Descriptor returns the backing descriptor of lazy content.
func (c Content) Descriptor() (Descriptor, bool) { return c.desc, c.lazy }

// Size returns the content length without materialising it.
func (c Content) Size() int64 {
	if c.lazy {
		return c.desc.Size
	}
	return int64(len(c.data))
}

// AppendTo appends the full content to dst and returns the extended
// slice — generating lazily or copying eagerly held bytes.
func (c Content) AppendTo(dst []byte) []byte {
	if c.lazy {
		return c.desc.AppendTo(dst)
	}
	return append(dst, c.data...)
}

// Bytes returns the content as a byte slice: the shared backing slice
// for eager content (do not modify), a freshly materialised buffer for
// lazy content. Hot paths that can reuse buffers should prefer
// AppendTo with a pooled buffer.
func (c Content) Bytes() []byte {
	if c.lazy {
		return c.desc.Bytes()
	}
	return c.data
}
