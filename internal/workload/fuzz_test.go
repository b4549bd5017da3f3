package workload

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// FuzzSplicedContent checks the spliced content Folder.InsertAt makes
// of a descriptor against an eager splice of the descriptor's bytes,
// for any kind, size, offset in [0, size] and insert: Size, AppendTo
// onto a non-empty dst with and without spare capacity (the dst prefix
// must survive untouched), Bytes, and Window, which must name the base
// for the window up to the splice and nothing for a window that
// reaches it. A size above maxSize or an offset above
// the size wraps into range, so the committed corpus can pin the edges
// (offset 0, offset == size, size 0) literally.
func FuzzSplicedContent(f *testing.F) {
	const maxSize = 64 << 10
	f.Add(uint8(Binary), int64(1), uint32(5000), uint32(2500), []byte("inserted"))
	f.Add(uint8(Text), int64(2), uint32(3000), uint32(0), []byte("prepend"))
	f.Add(uint8(FakeJPEG), int64(3), uint32(700), uint32(700), []byte("append"))
	f.Add(uint8(PixelImage), int64(4), uint32(100), uint32(40), []byte{})
	f.Add(uint8(Binary), int64(5), uint32(0), uint32(0), []byte("into nothing"))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, size, off uint32, insert []byte) {
		if size > maxSize {
			size %= maxSize + 1
		}
		if off > size {
			off %= size + 1
		}
		base := Describe(sim.NewRNG(seed), Kinds[int(kind)%len(Kinds)], int64(size))
		old := DescriptorContent(base).Bytes()
		want := slices.Concat(old[:off], insert, old[off:])
		folder := NewFolder()
		folder.CreateLazy(at(0), "x", base)
		folder.InsertAt(at(1), "x", int64(off), insert)
		c := mustFile(folder, "x").Content()

		if got := c.Size(); got != int64(len(want)) {
			t.Fatalf("%v splice at %d of %d bytes: Size = %d, want %d", base, off, len(insert), got, len(want))
		}
		prefix := []byte("dst prefix")
		for _, spare := range []int{0, len(want) + 17} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got := c.AppendTo(dst)
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%v splice at %d, spare %d: AppendTo changed the dst prefix to %q", base, off, spare, got[:len(prefix)])
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%v splice at %d of %d bytes, spare %d: AppendTo differs from the eager splice", base, off, len(insert), spare)
			}
		}
		if !bytes.Equal(c.Bytes(), want) {
			t.Fatalf("%v splice at %d of %d bytes: Bytes differs from the eager splice", base, off, len(insert))
		}

		if d, ok := c.Window(0, int64(off)); !ok || d != base {
			t.Fatalf("%v splice at %d: Window(0, %d) = %v, %v; want the base", base, off, off, d, ok)
		}
		if _, ok := c.Window(0, int64(off)+1); ok {
			t.Fatalf("%v splice at %d: Window reaching the splice has a descriptor", base, off)
		}
	})
}
