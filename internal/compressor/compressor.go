// Package compressor implements the transmission-compression policies
// observed in the study (Sect. 4.5):
//
//   - None: transmit raw (SkyDrive, Wuala, Cloud Drive).
//   - Always: compress every payload regardless of content (Dropbox —
//     which therefore wastes CPU and bytes on JPEGs).
//   - Smart: sniff the content type first and skip formats that are
//     already compressed (Google Drive, which the paper caught by
//     feeding it fake JPEGs: JPEG header, text body — Google Drive
//     trusts the header and skips compression, Fig. 5c).
//
// A compressed payload is charged the exact length of the level-6
// DEFLATE stream compress/flate writes for it, so upload volumes
// inherit genuine content-dependent ratios: dictionary text shrinks
// ~3-4x, random bytes grow slightly, fake JPEGs shrink only under the
// Always policy. The length comes from a size-only port of flate's
// level-6 compressor (deflatesize.go) that runs the same match search
// and block choices but writes no stream; compress/flate itself is the
// oracle its tests compare against.
package compressor

import (
	"crypto/sha256"
	"fmt"
	"sync"
)

// Policy selects a compression behaviour.
type Policy int

const (
	// None never compresses.
	None Policy = iota
	// Always compresses every payload.
	Always
	// Smart compresses unless the content sniffs as an
	// already-compressed format.
	Smart
)

// String returns the policy name used in Table 1.
func (p Policy) String() string {
	switch p {
	case None:
		return "no"
	case Always:
		return "always"
	case Smart:
		return "smart"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// sizers pools size-only DEFLATE states (about 700 kB each, most of it
// the hash chains and window) across the many per-chunk size
// computations of a benchmark campaign. A size depends only on the
// input, so pooling never changes a transmitted size.
var sizers = sync.Pool{New: func() any { return new(deflateSizer) }}

// TransmitSize returns the byte count the policy transmits for one
// payload: its raw length when the policy skips it, otherwise the
// length of its level-6 DEFLATE stream, computed without
// producing the compressed output — the upload planner only ever
// needs the size. The count is exact: DEFLATE is deterministic, so the
// size-only kernel yields the length of the stream flate would write,
// and the (content hash -> size) cache below can never change a
// result, only skip recomputing it.
func TransmitSize(p Policy, data []byte) int64 {
	switch p {
	case None:
		return int64(len(data))
	case Smart:
		if LooksCompressed(data) {
			return int64(len(data))
		}
	case Always:
	default:
		// client.Profile.Validate rejects an unknown policy before a
		// client plans any upload, so only a bug gets here.
		panic(fmt.Sprintf("compressor: unknown policy %d", int(p)))
	}
	return deflatedSize(data)
}

// Size-only DEFLATE dominates the CPU of campaigns against compressing
// services: traced at seed 42 on a 2-vCPU x86-64 VM, the compressor is
// 55% of cmd/perfbench's fig6 CPU and 67% of its delta_edit CPU, and
// without the caches Dropbox and Google Drive would each deflate their
// own copy of the contents a Fig. 6 matrix shares across services.
// Harnesses also re-plan identical content: repeated engine timings
// over one seed and the parallel-vs-sequential bit-identity checks.
// The caches below hold only pure functions of the content (sniff
// verdict, deflated size), never a policy's answer, so one entry
// serves every policy and sizes stay exact. The hash cache keys by
// SHA-256, an order of magnitude cheaper than the DEFLATE it saves;
// collisions are not a practical concern.
const (
	// sizeCacheMinLen keeps tiny payloads (delta literal runs, sub-kB
	// files) out of the hash cache: hashing overhead and map churn
	// would rival the DEFLATE they save.
	sizeCacheMinLen = 4 << 10
	// sizeCacheMaxEntries bounds one generation of a memo.
	sizeCacheMaxEntries = 4096
)

// memo is a bounded concurrent map kept as two generations. When the
// current map reaches sizeCacheMaxEntries it becomes the previous map
// and a fresh one starts; lookups consult both. So an entry survives at
// least sizeCacheMaxEntries later insertions — enough for one service's
// cells to hand a campaign repetition's contents to the next service's
// — and the memo never holds more than twice the bound.
type memo[K comparable, V any] struct {
	mu        sync.RWMutex
	cur, prev map[K]V
}

func (m *memo[K, V]) get(k K) (v V, ok bool) {
	m.mu.RLock()
	if v, ok = m.cur[k]; !ok {
		v, ok = m.prev[k]
	}
	m.mu.RUnlock()
	return v, ok
}

func (m *memo[K, V]) put(k K, v V) {
	m.mu.Lock()
	if m.cur == nil || len(m.cur) >= sizeCacheMaxEntries {
		m.prev, m.cur = m.cur, make(map[K]V, 256)
	}
	m.cur[k] = v
	m.mu.Unlock()
}

var hashSizes memo[[sha256.Size]byte, int64]

// deflatedSize is the counting DEFLATE behind TransmitSize, memoised
// by content hash for payloads worth caching.
func deflatedSize(data []byte) int64 {
	if len(data) < sizeCacheMinLen {
		return countDeflate(data)
	}
	key := sha256.Sum256(data)
	if n, ok := hashSizes.get(key); ok {
		return n
	}
	n := countDeflate(data)
	hashSizes.put(key, n)
	return n
}

// ContentKey identifies a deterministic payload without hashing it:
// generated benchmark content is a pure function of its descriptor
// (generator id, seed, size) and the chunk window cut from it. Keying
// the size cache on this identity skips not only the DEFLATE but the
// SHA-256 over megabytes of content — and, for lazily planned files,
// the content generation itself.
type ContentKey struct {
	Gen  uint32 // generator id: content kind
	Seed int64  // descriptor stream seed
	Size int64  // whole-content length
	Off  int64  // chunk offset within the content
	Len  int64  // chunk length
}

// keyedSize is what any policy needs to know about one keyed payload:
// its sniff verdict and, once a policy has needed it, its deflated
// size (-1 until then, which only a sniffed payload can be — Smart
// skips its DEFLATE).
type keyedSize struct {
	sniffed  bool
	deflated int64
}

var keyedSizes memo[ContentKey, keyedSize]

// TransmitSizeKeyed returns the byte count TransmitSize would report
// for a payload identified by key, materialising the payload
// via data() only on a cache miss. rawLen is the payload length (known
// without materialising); policies that never compress return it
// directly. Sizes are exact: one entry per key serves every policy,
// and it records only facts about the content.
func TransmitSizeKeyed(p Policy, key ContentKey, rawLen int64, data func() []byte) int64 {
	switch p {
	case None:
		return rawLen
	case Always, Smart:
	default:
		// As in TransmitSize: client.Profile.Validate rejects an
		// unknown policy before any upload is planned.
		panic(fmt.Sprintf("compressor: unknown policy %d", int(p)))
	}
	e, ok := keyedSizes.get(key)
	if !ok || (e.deflated < 0 && p == Always) {
		b := data()
		e = keyedSize{sniffed: LooksCompressed(b), deflated: -1}
		if p == Always || !e.sniffed {
			e.deflated = countDeflate(b)
		}
		keyedSizes.put(key, e)
	}
	if p == Smart && e.sniffed {
		return rawLen
	}
	return e.deflated
}

// countDeflate returns the length of the level-6 DEFLATE stream
// of data.
func countDeflate(data []byte) int64 {
	d := sizers.Get().(*deflateSizer)
	n := d.size(data)
	sizers.Put(d)
	return n
}

// LooksCompressed sniffs magic numbers of common already-compressed
// formats. This is the "verify the file format before trying to
// compress it" heuristic the paper suggests and attributes to Google
// Drive. It inspects only the header — which is exactly why a fake
// JPEG (JPEG header, text payload) defeats it.
func LooksCompressed(data []byte) bool {
	if len(data) < 4 {
		return false
	}
	switch {
	case data[0] == 0xFF && data[1] == 0xD8 && data[2] == 0xFF: // JPEG
		return true
	case data[0] == 0x89 && data[1] == 'P' && data[2] == 'N' && data[3] == 'G': // PNG
		return true
	case data[0] == 0x1F && data[1] == 0x8B: // gzip
		return true
	case data[0] == 'P' && data[1] == 'K' && (data[2] == 3 || data[2] == 5): // zip
		return true
	case data[0] == 'B' && data[1] == 'Z' && data[2] == 'h': // bzip2
		return true
	case len(data) >= 12 && string(data[4:8]) == "ftyp": // MP4 family
		return true
	case data[0] == 'O' && data[1] == 'g' && data[2] == 'g' && data[3] == 'S': // Ogg
		return true
	case data[0] == 0xFF && (data[1]&0xE0) == 0xE0: // MPEG audio frame
		return true
	default:
		return false
	}
}
