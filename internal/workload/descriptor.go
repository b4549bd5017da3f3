package workload

import (
	"fmt"
	"slices"

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

// String labels the descriptor for test failures.
func (d Descriptor) String() string {
	return fmt.Sprintf("%s(seed=%d,size=%d)", d.Kind, d.Seed, d.Size)
}

// Content is what a folder file holds, in one of three forms:
//
//   - lazy: a Descriptor (generated benchmark files);
//   - spliced: a base Descriptor with bytes inserted at one offset,
//     which is what Folder.Append and Folder.InsertAt make of a
//     generated file (the Fig. 4 edits);
//   - eager: plain bytes (files built by the workload script, and any
//     edit of content that is not a plain descriptor).
//
// Lazy and spliced content hold no materialised bytes beyond the
// insert. That is what lets capability-poor clients plan a whole upload
// without the content ever existing, lets the compressor key its size
// cache on descriptor identity instead of hashing megabytes, and keeps
// an edited 10 MB file from pinning 10 MB for the rest of its cell.
//
// Content values are immutable by convention: the byte slice behind an
// eager or spliced Content is never modified after creation, so
// Contents may be copied and shared freely (Folder.Copy, tombstones).
type Content struct {
	desc Descriptor // lazy: the content; spliced: the base
	data []byte     // eager: the content; spliced: the inserted bytes
	off  int64      // spliced: where data goes into the base, in [0, desc.Size]
	form contentForm
}

type contentForm uint8

const (
	eagerForm contentForm = iota
	lazyForm
	splicedForm
)

// BytesContent wraps eager bytes. The caller must not modify b
// afterwards.
func BytesContent(b []byte) Content { return Content{data: b} }

// DescriptorContent wraps a lazy descriptor.
func DescriptorContent(d Descriptor) Content { return Content{desc: d, form: lazyForm} }

// Lazy reports whether the content is descriptor-backed (lazy or
// spliced) and not yet materialised.
func (c Content) Lazy() bool { return c.form != eagerForm }

// Descriptor returns the backing descriptor of lazy content; spliced
// and eager content have none.
func (c Content) Descriptor() (Descriptor, bool) { return c.desc, c.form == lazyForm }

// Window reports a descriptor whose bytes [off, off+ln) are exactly the
// content's bytes [off, off+ln): the content's own descriptor when it is
// lazy, its base when it is spliced and the window ends at or before
// the splice. Eager bytes, and windows that reach a splice, have none.
func (c Content) Window(off, ln int64) (Descriptor, bool) {
	switch c.form {
	case lazyForm:
		return c.desc, off+ln <= c.desc.Size
	case splicedForm:
		return c.desc, off+ln <= c.off
	}
	return Descriptor{}, false
}

// Size returns the content length without materialising it.
func (c Content) Size() int64 {
	switch c.form {
	case lazyForm:
		return c.desc.Size
	case splicedForm:
		return c.desc.Size + int64(len(c.data))
	}
	return int64(len(c.data))
}

// AppendTo appends the full content to dst and returns the extended
// slice — generating lazily, copying eagerly held bytes, or generating
// a splice's base and opening the gap for its insert in place, so dst
// (a pooled buffer of Size bytes, say) is the only buffer involved.
func (c Content) AppendTo(dst []byte) []byte {
	switch c.form {
	case lazyForm:
		return c.desc.AppendTo(dst)
	case splicedForm:
		start := len(dst)
		dst = c.desc.AppendTo(slices.Grow(dst, int(c.Size())))
		return openSplice(dst, start, c.off, c.data)
	}
	return append(dst, c.data...)
}

// openSplice extends buf, whose bytes from start on hold a splice's
// base, by len(insert) and places insert at offset off of that base,
// shifting the rest of the base up in place.
func openSplice(buf []byte, start int, off int64, insert []byte) []byte {
	at := start + int(off)
	end := len(buf)
	buf = append(buf, insert...) // grows by the insert; overwritten below
	copy(buf[at+len(insert):], buf[at:end])
	copy(buf[at:], insert)
	return buf
}

// Bytes returns the content as a byte slice: the shared backing slice
// for eager content (do not modify), a freshly materialised buffer for
// lazy and spliced content. Hot paths that can reuse buffers should
// prefer AppendTo with a pooled buffer.
func (c Content) Bytes() []byte {
	if c.form == eagerForm {
		return c.data
	}
	return c.AppendTo(make([]byte, 0, c.Size()))
}
