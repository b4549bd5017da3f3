// Package deltaenc implements rsync-style delta encoding (Sect. 4.4):
// given the signature of an old revision, compute a delta that encodes
// a new revision as copy-from-old and literal operations, so only the
// modified portions of a file travel to the server.
//
// The implementation follows the classic rsync design: the old data is
// summarized as per-block (weak rolling checksum, strong hash) pairs;
// the encoder slides a window over the new data, using the rolling
// checksum to find candidate block matches in O(1) per byte and the
// strong hash to confirm them. Dropbox is the only service in the
// study that implements this; it applies it per 4 MB chunk, which is
// why edits that shift content across chunk boundaries inflate its
// upload volume (Fig. 4, right).
package deltaenc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
)

// DefaultBlockSize is the signature block size. Real rsync adapts it
// to file size; a fixed 2 KiB keeps deltas fine-grained at the file
// sizes the paper exercises (100 kB – 10 MB).
const DefaultBlockSize = 2048

// strongLen truncates the strong hash in signatures; 16 bytes is far
// beyond collision risk at these scales and halves signature volume.
const strongLen = 16

// BlockSig is the signature of one block of the old revision.
type BlockSig struct {
	Index  int
	Weak   uint32
	Strong [strongLen]byte
}

// Signature summarizes one revision of a file.
type Signature struct {
	BlockSize int
	Total     int64 // length of the summarized data
	Blocks    []BlockSig
}

// Sign computes the signature of data.
func Sign(data []byte, blockSize int) *Signature {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sig := &Signature{BlockSize: blockSize, Total: int64(len(data))}
	for off, idx := 0, 0; off < len(data); off, idx = off+blockSize, idx+1 {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		block := data[off:end]
		var strong [strongLen]byte
		sum := sha256.Sum256(block)
		copy(strong[:], sum[:strongLen])
		sig.Blocks = append(sig.Blocks, BlockSig{
			Index:  idx,
			Weak:   weakSum(block),
			Strong: strong,
		})
	}
	return sig
}

// Op is one delta operation: either a copy of a whole old block or a
// run of literal bytes.
type Op struct {
	// Copy: when true, the op copies old block BlockIndex.
	Copy       bool
	BlockIndex int
	// Literal holds the raw bytes for non-copy ops.
	Literal []byte
}

// Delta encodes a new revision against an old signature.
type Delta struct {
	BlockSize int
	OldTotal  int64
	Ops       []Op
}

// LiteralBytes returns how many raw bytes the delta carries — the
// dominant term of the upload volume for a modified file.
func (d *Delta) LiteralBytes() int64 {
	var n int64
	for _, op := range d.Ops {
		if !op.Copy {
			n += int64(len(op.Literal))
		}
	}
	return n
}

// WireSize returns the transmitted size of the delta: literal bytes
// plus per-op framing (a copy op costs ~8 bytes, a literal op its
// length plus ~8 bytes of framing).
func (d *Delta) WireSize() int64 {
	var n int64 = 16
	for _, op := range d.Ops {
		if op.Copy {
			n += 8
		} else {
			n += 8 + int64(len(op.Literal))
		}
	}
	return n
}

// Compute builds the delta that transforms the data summarized by sig
// into target.
func Compute(sig *Signature, target []byte) *Delta {
	d := &Delta{BlockSize: sig.BlockSize, OldTotal: sig.Total}
	if len(target) == 0 {
		return d
	}
	// Index old blocks by weak sum for O(1) candidate lookup.
	byWeak := make(map[uint32][]BlockSig, len(sig.Blocks))
	for _, b := range sig.Blocks {
		byWeak[b.Weak] = append(byWeak[b.Weak], b)
	}

	bs := sig.BlockSize
	var litStart int
	flushLiteral := func(end int) {
		if end > litStart {
			lit := make([]byte, end-litStart)
			copy(lit, target[litStart:end])
			d.Ops = append(d.Ops, Op{Literal: lit})
		}
	}

	i := 0
	var w rolling
	windowValid := false
	for i+bs <= len(target) {
		if !windowValid {
			w.init(target[i : i+bs])
			windowValid = true
		}
		if cands, ok := byWeak[w.sum()]; ok {
			window := target[i : i+bs]
			sum := sha256.Sum256(window)
			matched := false
			for _, c := range cands {
				if bytes.Equal(sum[:strongLen], c.Strong[:]) {
					flushLiteral(i)
					d.Ops = append(d.Ops, Op{Copy: true, BlockIndex: c.Index})
					i += bs
					litStart = i
					windowValid = false
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		// No match: slide one byte, unless the window already
		// touches the end of the target (no byte to roll in).
		if i+bs == len(target) {
			break
		}
		w.roll(target[i], target[i+bs])
		i++
	}
	flushLiteral(len(target))
	return d
}

// Patch reconstructs the new revision from the old data and a delta.
func Patch(old []byte, d *Delta) ([]byte, error) {
	if int64(len(old)) != d.OldTotal {
		return nil, fmt.Errorf("deltaenc: old data is %d bytes, delta expects %d", len(old), d.OldTotal)
	}
	var out []byte
	for _, op := range d.Ops {
		if !op.Copy {
			out = append(out, op.Literal...)
			continue
		}
		start := op.BlockIndex * d.BlockSize
		if start < 0 || start >= len(old) {
			return nil, errors.New("deltaenc: copy op out of range")
		}
		end := start + d.BlockSize
		if end > len(old) {
			end = len(old)
		}
		out = append(out, old[start:end]...)
	}
	return out, nil
}

// rolling is the rsync weak checksum (a variant of Adler-32) with O(1)
// slide.
type rolling struct {
	a, b uint32
	n    uint32
}

func (r *rolling) init(block []byte) {
	// b = sum over i of (n-i)*block[i], accumulated multiply-free:
	// adding the running a after each byte gives every byte one more
	// contribution per remaining position.
	var a, b uint32
	for _, c := range block {
		a += uint32(c)
		b += a
	}
	r.a, r.b = a, b
	r.n = uint32(len(block))
}

func (r *rolling) roll(out, in byte) {
	r.a += uint32(in) - uint32(out)
	r.b += r.a - r.n*uint32(out)
}

func (r *rolling) sum() uint32 { return r.a&0xffff | r.b<<16 }

// weakSum computes the checksum of a whole block (no rolling).
func weakSum(block []byte) uint32 {
	var r rolling
	r.init(block)
	return r.sum()
}
