package compressor

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzTransmitSize checks both size-only entry points against the
// raw length or, where the policy compresses, the length of a real
// DEFLATE stream (deflateLen), for any payload, policy and lookup
// order. order bit 0 asks the keyed cache before the hash cache, bit 1
// first fills the key's entry through the other compressing policy
// (the cross-service sharing path), and bit 2 tiles the payload past
// sizeCacheMinLen so the hash cache engages.
func FuzzTransmitSize(f *testing.F) {
	f.Add([]byte("hello, hello, hello"), uint8(Always), uint8(0))
	f.Add([]byte{0xFF, 0xD8, 0xFF, 0xE0, 't', 'e', 'x', 't'}, uint8(Smart), uint8(2))
	f.Add([]byte{0xFF, 0xD8, 0xFF, 0xE0, 't', 'e', 'x', 't'}, uint8(Always), uint8(7))
	f.Add([]byte{}, uint8(None), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, policy, order uint8) {
		if len(data) > 1<<20 {
			t.Skip("larger than any planner chunk")
		}
		if order&4 != 0 && len(data) > 0 {
			for len(data) < sizeCacheMinLen {
				data = append(data, data...)
			}
		}
		p := Policy(policy % 3)
		want := int64(len(data))
		if p == Always || p == Smart && !LooksCompressed(data) {
			want = deflateLen(t, data)
		}
		// The key is a digest of the content, so distinct payloads
		// never share an entry; the high Gen bit keeps it clear of the
		// planner's generator ids.
		h := sha256.Sum256(data)
		key := ContentKey{
			Gen:  1<<31 | binary.LittleEndian.Uint32(h[:4]),
			Seed: int64(binary.LittleEndian.Uint64(h[4:12])),
			Size: int64(len(data)),
			Len:  int64(len(data)),
		}
		keyed := func() int64 {
			if order&2 != 0 {
				other := Always
				if p == Always {
					other = Smart
				}
				TransmitSizeKeyed(other, key, int64(len(data)), func() []byte { return data })
			}
			return TransmitSizeKeyed(p, key, int64(len(data)), func() []byte { return data })
		}
		var got [2]int64
		if order&1 != 0 {
			got[1] = keyed()
			got[0] = TransmitSize(p, data)
		} else {
			got[0] = TransmitSize(p, data)
			got[1] = keyed()
		}
		if got[0] != want || got[1] != want {
			t.Fatalf("%v on %d bytes: TransmitSize = %d, TransmitSizeKeyed = %d, want %d", p, len(data), got[0], got[1], want)
		}
	})
}
