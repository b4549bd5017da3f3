// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is a size-only port of compress/flate's level-6 compressor
// (deflate.go, huffman_bit_writer.go, huffman_code.go and token.go of
// the Go standard library). It runs the same LZ77 search and makes the
// same block choices, but keeps only what decides the stream length:
// per-block symbol histograms and Huffman code lengths. It builds no
// codes and writes no bits.

package compressor

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const (
	windowSize = 1 << 15
	windowMask = windowSize - 1

	baseMatchLength = 3   // the smallest match length RFC 1951 can code
	minMatchLength  = 4   // the smallest match length flate emits
	maxMatchLength  = 258 // the largest match length

	// The most tokens in one flate block.
	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17
	hashSize            = 1 << hashBits
	hashMask            = hashSize - 1
	maxHashOffset       = 1 << 24
	hashmul             = 0x1e35a7bd

	// Level 6 searches lazily: it looks for a better match at the next
	// byte unless the pending one reaches lazyLength, stops at a match
	// of niceLength and follows at most maxChain hash-chain links.
	// (Its good length, 8, never applies: flate starts every search
	// from length minMatchLength-1, so the whole chain is walked.)
	lazyLength = 16
	niceLength = 128
	maxChain   = 128

	maxNumLit        = 286
	offsetCodeCount  = 30
	endBlockMarker   = 256
	lengthCodesStart = 257
	codegenCodeCount = 19
)

// The number of extra bits of length code X - lengthCodesStart.
var lengthExtraBits = [...]int8{
	/* 257 */ 0, 0, 0,
	/* 260 */ 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
	/* 270 */ 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
	/* 280 */ 4, 5, 5, 5, 5, 0,
}

// The number of extra bits of offset code X.
var offsetExtraBits = [...]int8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
	4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// The order in which a dynamic header lists the codegen code lengths.
var codegenOrder = [...]uint32{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The length code of match length X is lengthCodes[X-baseMatchLength].
var lengthCodes = [...]uint8{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

var offsetCodes = [...]uint8{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

// offsetCode returns the offset code of offset off+1, for the offsets
// up to windowSize that a level-6 match can have.
func offsetCode(off uint32) uint8 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	return offsetCodes[off>>7] + 14
}

// fixedLitLen is the length of literal/length code c in the fixed
// Huffman code of RFC 1951 3.2.6. Every fixed offset code is 5 bits.
func fixedLitLen(c int) int {
	switch {
	case c < 144:
		return 8
	case c < 256:
		return 9
	case c < 280:
		return 7
	default:
		return 8
	}
}

// hash4 hashes the first 4 bytes of b.
func hash4(b []byte) uint32 {
	return (binary.BigEndian.Uint32(b) * hashmul) >> (32 - hashBits)
}

// matchLen returns the number of leading bytes a and b share, up to
// max. Both slices must hold at least max bytes.
func matchLen(a, b []byte, max int) int {
	a, b = a[:max], b[:max]
	n := 0
	for ; n+8 <= max; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < max && a[n] == b[n]; n++ {
	}
	return n
}

// deflateSizer is the state of one size-only level-6 DEFLATE: its
// window and hash chains as in flate's compressor, and in place of a
// token queue the current block's symbol histograms. It is reused
// across inputs; reset is O(1) (see reset).
type deflateSizer struct {
	// hashHead[h] holds the newest window position with hash h, and
	// hashPrev[p&windowMask] the position before p on p's chain, both
	// stored as position+hashOffset. A value below hashOffset is empty.
	hashHead   [hashSize]uint32
	hashPrev   [windowSize]uint32
	hashOffset int
	chainHead  int

	// Unprocessed input is window[index:windowEnd]. blockStart is the
	// window position of the current block's first byte, or
	// math.MaxInt32 once that byte has slid out of the window.
	window        [2 * windowSize]byte
	index         int
	windowEnd     int
	blockStart    int
	byteAvailable bool // window[index-1] is still to be emitted
	length        int  // the pending match found at index-1
	offset        int

	// The current block: its token count and symbol histograms.
	tokens  int
	litFreq [maxNumLit]int32
	offFreq [offsetCodeCount]int32

	bits int64 // length of the stream so far

	lit, off, cg huffLengths
	codegen      [maxNumLit + offsetCodeCount + 1]uint8
	codegenFreq  [codegenCodeCount]int32
}

// size returns the length in bytes of the stream that
// flate.NewWriter(w, 6) writes for data and then Close.
func (d *deflateSizer) size(data []byte) int64 {
	d.reset()
	// flate.Writer.Write alternates a step over the window with a fill
	// of it; the interleaving decides when the window slides.
	for len(data) > 0 {
		d.deflate(false)
		data = data[d.fill(data):]
	}
	d.deflate(true)
	// Close ends the stream with an empty final stored block.
	return d.storedHeader() / 8
}

// reset prepares d for a new stream. Instead of clearing the hash
// tables it moves hashOffset past every position the last stream
// stored, each below hashOffset+windowEnd, so a stale entry reads as
// empty exactly as a cleared one does. The tables are cleared only
// when the offset would pass maxHashOffset, or on first use.
func (d *deflateSizer) reset() {
	d.hashOffset += d.windowEnd
	if d.hashOffset == 0 || d.hashOffset > maxHashOffset {
		clear(d.hashHead[:])
		clear(d.hashPrev[:])
		d.hashOffset = 1
	}
	d.chainHead = -1
	d.index, d.windowEnd = 0, 0
	d.blockStart, d.byteAvailable = 0, false
	d.length, d.offset = minMatchLength-1, 0
	d.tokens = 0
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	d.bits = 0
}

// fill copies as much of b into the window as fits, first sliding the
// window by windowSize once the search has moved into its top half,
// and returns the number of bytes copied.
func (d *deflateSizer) fill(b []byte) int {
	if d.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		copy(d.window[:windowSize], d.window[windowSize:])
		d.index -= windowSize
		d.windowEnd -= windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
		d.hashOffset += windowSize
		if d.hashOffset > maxHashOffset {
			delta := d.hashOffset - 1
			d.hashOffset -= delta
			d.chainHead -= delta
			rebase(d.hashPrev[:], delta)
			rebase(d.hashHead[:], delta)
		}
	}
	n := copy(d.window[d.windowEnd:], b)
	d.windowEnd += n
	return n
}

// rebase lowers every stored position by delta, emptying those that
// would fall below 1.
func rebase(tab []uint32, delta int) {
	for i, v := range tab {
		if int(v) > delta {
			tab[i] = uint32(int(v) - delta)
		} else {
			tab[i] = 0
		}
	}
}

// deflate runs the lazy LZ77 search over the window. Unless sync is
// set it stops while less than a maximal match plus a hash of
// lookahead is left; with sync it consumes everything and closes the
// last block. The search state lives in locals while it runs.
func (d *deflateSizer) deflate(sync bool) {
	index, windowEnd := d.index, d.windowEnd
	if windowEnd-index < minMatchLength+maxMatchLength && !sync {
		return
	}
	win, head, prev := &d.window, &d.hashHead, &d.hashPrev
	hashOffset, chainHead := d.hashOffset, d.chainHead
	length, offset, byteAvailable, tokens := d.length, d.offset, d.byteAvailable, d.tokens
	defer func() {
		d.index, d.chainHead = index, chainHead
		d.length, d.offset, d.byteAvailable, d.tokens = length, offset, byteAvailable, tokens
	}()
	// insert adds position i to its hash chain and returns the
	// chain's previous head.
	insert := func(i int) int {
		hh := &head[hash4(win[i:])&hashMask]
		p := *hh
		prev[i&windowMask] = p
		*hh = uint32(i + hashOffset)
		return int(p)
	}

	maxInsertIndex := windowEnd - (minMatchLength - 1)
	for {
		lookahead := windowEnd - index
		if lookahead < minMatchLength+maxMatchLength {
			if !sync {
				return
			}
			if lookahead == 0 {
				if byteAvailable {
					d.litFreq[win[index-1]]++
					tokens++
					byteAvailable = false
				}
				if tokens > 0 {
					d.closeBlock(index)
					tokens = 0
				}
				return
			}
		}
		if index < maxInsertIndex {
			chainHead = insert(index)
		}
		prevLength, prevOffset := length, offset
		length, offset = minMatchLength-1, 0
		minIndex := max(index-windowSize, 0)
		if chainHead-hashOffset >= minIndex && lookahead > prevLength && prevLength < lazyLength {
			if n, off, ok := d.findMatch(index, chainHead-hashOffset, lookahead); ok {
				length, offset = n, off
			}
		}
		if prevLength >= minMatchLength && length <= prevLength {
			// The match at index-1 is no worse than the one at index:
			// emit it and hash every position it covers.
			d.litFreq[lengthCodesStart+int(lengthCodes[prevLength-baseMatchLength])]++
			d.offFreq[offsetCode(uint32(prevOffset-1))]++
			tokens++
			end := index + prevLength - 1
			for index++; index < end; index++ {
				if index < maxInsertIndex {
					insert(index)
				}
			}
			byteAvailable = false
			length = minMatchLength - 1
			if tokens == maxFlateBlockTokens {
				d.closeBlock(index)
				tokens = 0
			}
			continue
		}
		if byteAvailable {
			d.litFreq[win[index-1]]++
			tokens++
			if tokens == maxFlateBlockTokens {
				d.closeBlock(index)
				tokens = 0
			}
		}
		index++
		byteAvailable = true
	}
}

// findMatch walks the hash chain from prevHead for the longest match
// at pos longer than minMatchLength-1, as flate's findMatch does.
func (d *deflateSizer) findMatch(pos, prevHead, lookahead int) (length, offset int, ok bool) {
	minMatchLook := min(maxMatchLength, lookahead)
	win := d.window[0 : pos+minMatchLook]
	nice := min(len(win)-pos, niceLength)
	length = minMatchLength - 1
	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize
	for i, tries := prevHead, maxChain; tries > 0; tries-- {
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)
			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length, offset, ok = n, pos-i, true
				if n >= nice {
					break
				}
				wEnd = win[pos+n]
			}
		}
		if i == minIndex {
			// hashPrev[i&windowMask] has been overwritten already.
			break
		}
		i = int(d.hashPrev[i&windowMask]) - d.hashOffset
		if i < minIndex || i < 0 {
			break
		}
	}
	return length, offset, ok
}

// storedHeader returns the stream length after a stored block's
// header: 3 header bits, padding to a byte, then LEN and NLEN.
func (d *deflateSizer) storedHeader() int64 {
	return (d.bits+3+7)&^7 + 32
}

// closeBlock adds the current block, which ends at window position
// index, to the stream length the way flate's writeBlock chooses and
// writes it, and starts a new block.
func (d *deflateSizer) closeBlock(index int) {
	storeLen := index - d.blockStart
	storable := d.blockStart <= index && storeLen <= maxStoreBlockSize
	d.blockStart = index

	d.litFreq[endBlockMarker] = 1
	numLiterals := maxNumLit
	for d.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets := offsetCodeCount
	for numOffsets > 0 && d.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	// A block without matches still needs an offset code to describe
	// a dynamic tree, so flate counts one that it never writes.
	noMatch := numOffsets == 0
	if noMatch {
		d.offFreq[0] = 1
		numOffsets = 1
	}
	d.lit.generate(d.litFreq[:], 15)
	d.off.generate(d.offFreq[:], 15)

	extra := 0
	for c := lengthCodesStart + 8; c < numLiterals; c++ {
		extra += int(d.litFreq[c]) * int(lengthExtraBits[c-lengthCodesStart])
	}
	for c := 4; c < numOffsets; c++ {
		extra += int(d.offFreq[c]) * int(offsetExtraBits[c])
	}
	// flate compares encodings with the extra bits only when a stored
	// block is among the candidates; the written block carries them.
	cmpExtra := 0
	if storable {
		cmpExtra = extra
	}

	fixed := 3 + cmpExtra
	for c, f := range d.litFreq[:numLiterals] {
		fixed += int(f) * fixedLitLen(c)
	}
	for _, f := range d.offFreq[:numOffsets] {
		fixed += int(f) * 5
	}
	size, fakeOffset := fixed, 5
	if dynamic := d.dynamicSize(numLiterals, numOffsets) + cmpExtra; dynamic < size {
		size, fakeOffset = dynamic, int(d.off.lens[0])
	}

	if storable && (storeLen+5)*8 < size {
		d.bits = d.storedHeader() + 8*int64(storeLen)
	} else {
		written := size - cmpExtra + extra
		if noMatch {
			written -= fakeOffset
		}
		d.bits += int64(written)
	}

	clear(d.litFreq[:])
	clear(d.offFreq[:])
}

// dynamicSize returns the bits of the current block as a dynamic
// Huffman block, extra bits left out: the header with its codegen
// (the run-length code of RFC 1951 3.2.7 over the concatenated code
// lengths, itself Huffman coded in at most 7 bits) and the symbols.
func (d *deflateSizer) dynamicSize(numLiterals, numOffsets int) int {
	clear(d.codegenFreq[:])
	lens := d.codegen[:0]
	lens = append(lens, d.lit.lens[:numLiterals]...)
	lens = append(lens, d.off.lens[:numOffsets]...)
	for i := 0; i < len(lens); {
		size := lens[i]
		count := 1
		for i+count < len(lens) && lens[i+count] == size {
			count++
		}
		i += count
		if size != 0 {
			d.codegenFreq[size]++
			count--
			for count >= 3 {
				d.codegenFreq[16]++
				count -= min(count, 6)
			}
		} else {
			for count >= 11 {
				d.codegenFreq[18]++
				count -= min(count, 138)
			}
			if count >= 3 {
				d.codegenFreq[17]++
				count = 0
			}
		}
		d.codegenFreq[size] += int32(count)
	}
	d.cg.generate(d.codegenFreq[:], 7)

	numCodegens := codegenCodeCount
	for numCodegens > 4 && d.codegenFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	return 3 + 5 + 5 + 4 + 3*numCodegens +
		d.cg.bitLength(d.codegenFreq[:]) +
		int(d.codegenFreq[16])*2 +
		int(d.codegenFreq[17])*3 +
		int(d.codegenFreq[18])*7 +
		d.lit.bitLength(d.litFreq[:numLiterals]) +
		d.off.bitLength(d.offFreq[:numOffsets])
}

// huffLengths holds the code lengths flate's huffmanEncoder assigns to
// one alphabet, and the scratch to compute them.
type huffLengths struct {
	lens     [maxNumLit]uint8
	keys     [maxNumLit]uint32 // freq<<16 | symbol
	freqs    [maxNumLit + 1]int32
	bitCount [16]int32
}

// bitLength returns the bits that symbols with frequencies freq take
// under lens.
func (h *huffLengths) bitLength(freq []int32) int {
	total := 0
	for i, f := range freq {
		total += int(f) * int(h.lens[i])
	}
	return total
}

// generate sets lens to the lengths of flate's length-limited Huffman
// code for freq. Ordering symbols by (freq, symbol) matches flate's
// byFreq sort, and lengths need no canonical codes, so the second,
// by-literal sort of flate falls away. Block frequencies stay below
// maxFlateBlockTokens+2, so a key holds freq and symbol exactly.
func (h *huffLengths) generate(freq []int32, maxBits int32) {
	keys := h.keys[:0]
	for i, f := range freq {
		if f != 0 {
			keys = append(keys, uint32(f)<<16|uint32(i))
		} else {
			h.lens[i] = 0
		}
	}
	if len(keys) <= 2 {
		for _, k := range keys {
			h.lens[k&0xffff] = 1
		}
		return
	}
	slices.Sort(keys)
	for i, k := range keys {
		h.freqs[i] = int32(k >> 16)
	}
	bitCount := h.bitCounts(int32(len(keys)), maxBits)
	// bitCount[n] symbols get n bits, the most frequent the fewest.
	for n, c := range bitCount {
		for _, k := range keys[len(keys)-int(c):] {
			h.lens[k&0xffff] = uint8(n)
		}
		keys = keys[:len(keys)-int(c)]
	}
}

// bitCounts is flate's package-merge variant: over the n >= 3 sorted
// frequencies in h.freqs it returns how many symbols get each code
// length up to maxBits.
func (h *huffLengths) bitCounts(n, maxBits int32) []int32 {
	list := h.freqs[:n+1]
	list[n] = math.MaxInt32
	// The tree can't be deeper than n-1.
	maxBits = min(maxBits, n-1)

	// levels[l] is the state of the chain being built at depth l;
	// level 0 is a bogus level whose nextPairFreq is never chosen.
	// leafCount[l][j] is the number of leaves left of the level-j
	// ancestor of level l's rightmost node.
	type levelInfo struct {
		level, lastFreq, nextCharFreq, nextPairFreq, needed int32
	}
	var levels [16]levelInfo
	var lc [16][16]int32
	for level := int32(1); level <= maxBits; level++ {
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1],
			nextCharFreq: list[2],
			nextPairFreq: list[0] + list[1],
		}
		lc[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}
	// The top level needs 2n-2 items and already has 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: end this level for good.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}
		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this level is a leaf.
			m := lc[level][level] + 1
			l.lastFreq = l.nextCharFreq
			lc[level][level] = m
			l.nextCharFreq = list[m]
		} else {
			// The next item is a pair from the level below, which
			// must now produce two more items.
			l.lastFreq = l.nextPairFreq
			// Take the lower levels' leaf counts from level-1: a
			// whole-row copy, since entries above level are never
			// read, keeping this level's own count.
			own := lc[level][level]
			lc[level] = lc[level-1]
			lc[level][level] = own
			levels[l.level-1].needed = 2
		}
		if l.needed--; l.needed == 0 {
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	bitCount := h.bitCount[:maxBits+1]
	counts := &lc[maxBits]
	for level, b := maxBits, 1; level > 0; level, b = level-1, b+1 {
		bitCount[b] = counts[level] - counts[level-1]
	}
	return bitCount
}
