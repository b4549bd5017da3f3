package client

import (
	"slices"

	"repro/internal/chunker"
	"repro/internal/compressor"
	"repro/internal/cryptobox"
	"repro/internal/dedup"
	"repro/internal/deltaenc"
	"repro/internal/workload"
)

// FilePlan is the upload plan for one changed file.
type FilePlan struct {
	Path      string
	FileBytes int64 // current file size
	// Units are the storage uploads the transfer layer performs, one
	// per chunk, each its bytes on the wire after delta encoding,
	// compression and encryption. Deduplicated chunks never become
	// units.
	Units []int64
	// DedupSkipped counts content bytes NOT uploaded thanks to
	// client-side deduplication.
	DedupSkipped int64
}

// UploadBytes sums the unit sizes.
func (p FilePlan) UploadBytes() int64 {
	var n int64
	for _, u := range p.Units {
		n += u
	}
	return n
}

// planner turns changed files into upload plans, maintaining the
// state the capabilities need: the service's chunk store
// (deduplication) and each path's previous revision (delta encoding).
// It computes only what a plan reads: chunk addresses only under dedup,
// and a delta signature only for the old chunk of a modified file that
// is about to be delta-encoded, never while planning a create.
// Encryption is modelled by its convergent key: an encrypted chunk is
// addressed by the hash of its key, which dedups exactly as the hash of
// its ciphertext would, and is as long as its plaintext, so no
// ciphertext is ever built (Validate rules out compressing one).
//
// Files arrive as workload.Content: a lazy descriptor, a descriptor
// with one splice (an edited generated file), or eager bytes. Every
// form plans in one loop over the chunk geometry, which the size alone
// decides except under content-defined chunking. Bytes are read only
// when a capability genuinely needs them: content-defined chunking,
// hashing for dedup, delta encoding, a compression-size cache miss, or
// compressing a chunk no descriptor names. A capability-poor profile
// (Cloud Drive: no chunking, no compression) plans a whole upload of a
// descriptor, plain or spliced, from its size alone — zero content
// bytes ever exist — which removes what used to be ~50% of its
// campaign repetitions. Chunks of spliced content that end before the
// splice resolve compression sizes through the base descriptor's keys.
// Lazy and spliced content materialise into a pooled buffer
// (workload.GetBuffer) released at the end of each plan; nothing the
// planner retains (hashes, sizes, the immutable Content of a previous
// revision) aliases it.
type planner struct {
	profile Profile
	cdc     *chunker.ContentDefined // VariableChunks only
	store   *dedup.Store            // the service's server-side chunk store
	prev    map[string]revision     // DeltaEncoding only: per path, the last planned revision

	litBuf []byte // scratch for delta literal runs (DeltaEncoding)
}

// revision is a planned file revision, kept for delta-encoding the
// next one: its content and its chunk lengths in file order.
type revision struct {
	content workload.Content
	lens    []int64
}

func newPlanner(p Profile, store *dedup.Store) *planner {
	pl := &planner{
		profile: p,
		store:   store,
		prev:    make(map[string]revision),
	}
	if p.ChunkMode == VariableChunks {
		pl.cdc = chunker.NewContentDefined(p.ChunkSize)
	}
	return pl
}

// descChunkKey names one chunk of a descriptor's content for the
// compressor's size cache: the chunk bytes are a pure function of
// (generator, seed, size, offset, length), so the cache never needs to
// hash — or even generate — the content to recognise it.
func descChunkKey(d workload.Descriptor, off, ln int64) compressor.ContentKey {
	return compressor.ContentKey{Gen: uint32(d.Kind) + 1, Seed: d.Seed, Size: d.Size, Off: off, Len: ln}
}

// fileBytes hands the planner the bytes of one file on first demand:
// eager content's own slice, lazy and spliced content materialised
// once into a pooled buffer that release returns.
type fileBytes struct {
	content workload.Content
	data    []byte
}

func (b *fileBytes) get() []byte {
	if b.data == nil {
		if b.content.Lazy() {
			b.data = b.content.AppendTo(workload.GetBuffer(b.content.Size()))
		} else {
			b.data = b.content.Bytes()
		}
	}
	return b.data
}

func (b *fileBytes) release() {
	if b.data != nil && b.content.Lazy() {
		workload.PutBuffer(b.data)
	}
}

// PlanFile computes the upload plan for one created or modified file,
// updating client and server state (the server store learns the new
// chunks; this models the upload's effect and keeps timing concerns in
// the transfer layer).
//
// A unit's wire size comes from delta encoding against the previous
// revision's same-index chunk (Dropbox applies its rsync per chunk,
// Sect. 4.4), else from the compression policy. Only transmitted sizes
// matter to the plan, so compression runs in size-only mode and never
// materialises output. A policy that never compresses sizes a chunk by
// its length, which is also an encrypted chunk's ciphertext length. A
// chunk whose window the content can name as a descriptor's bytes
// (Content.Window) resolves through the keyed size cache, skipping even
// the content hash on repeats; the key is exact because it names the
// same bytes. Any other chunk is sized by its content hash.
func (pl *planner) PlanFile(path string, content workload.Content) FilePlan {
	prof := pl.profile
	size := content.Size()
	plan := FilePlan{Path: path, FileBytes: size}
	src := fileBytes{content: content}

	// The chunk geometry, one length per chunk in file order. The plan's
	// units reuse the slice: the loop overwrites the lengths it has read
	// with wire sizes, leaving out deduplicated chunks.
	var lens []int64
	switch prof.ChunkMode {
	case NoChunking:
		if size > 0 {
			lens = []int64{size}
		}
	case FixedChunks:
		lens = chunker.Fixed(nil, size, prof.ChunkSize)
	case VariableChunks:
		cuts := pl.cdc.Split(src.get())
		lens = make([]int64, len(cuts))
		for i, c := range cuts {
			lens[i] = c.Len()
		}
	}

	// The previous revision, read through a second fileBytes only when
	// one of its chunks is delta-encoded against.
	prev := pl.prev[path]
	old := fileBytes{content: prev.content}
	if prof.DeltaEncoding {
		pl.prev[path] = revision{content: content, lens: slices.Clone(lens)}
	}

	var next, oldNext int64
	kept := 0
	for i, ln := range lens {
		off := next
		next += ln
		oldOff := oldNext // old chunk i is [oldOff, oldNext)
		if i < len(prev.lens) {
			oldNext += prev.lens[i]
		}

		// Content addresses exist to be announced to the server; a
		// client without the capability never computes them. One
		// lookup decides both the dedup verdict and the insert: an
		// already-present chunk is the hit, a new one is stored and
		// uploaded below.
		if prof.Dedup {
			addressed := src.get()[off : off+ln]
			if prof.Encryption {
				// The convergent key stands in for the ciphertext: both
				// are injective in the plaintext.
				k := cryptobox.DeriveKey(addressed)
				addressed = k[:]
			}
			if !pl.store.PutHashed(dedup.HashBytes(addressed), ln) {
				plan.DedupSkipped += ln
				continue
			}
		}

		var wire int64
		switch d, keyed := content.Window(off, ln); {
		case i < len(prev.lens):
			wire = pl.deltaSize(old.get()[oldOff:oldNext], src.get()[off:off+ln])
		case prof.Compression == compressor.None:
			wire = ln // an encrypted chunk is as long as its plaintext
		case keyed:
			wire = compressor.TransmitSizeKeyed(prof.Compression, descChunkKey(d, off, ln), ln,
				func() []byte { return src.get()[off : off+ln] })
		default:
			wire = compressor.TransmitSize(prof.Compression, src.get()[off:off+ln])
		}
		lens[kept] = wire
		kept++
	}
	if kept > 0 {
		plan.Units = lens[:kept]
	}
	src.release()
	old.release()
	return plan
}

// deltaSize is the wire size of chunk sent as a delta against the
// previous revision's same-index chunk: the literal bytes still benefit
// from compression; the copy-op framing does not.
func (pl *planner) deltaSize(oldChunk, chunk []byte) int64 {
	d := deltaenc.Compute(deltaenc.Sign(oldChunk, deltaenc.DefaultBlockSize), chunk)
	lits := pl.litBuf[:0]
	for _, op := range d.Ops {
		if !op.Copy {
			lits = append(lits, op.Literal...)
		}
	}
	pl.litBuf = lits
	return compressor.TransmitSize(pl.profile.Compression, lits) + (d.WireSize() - d.LiteralBytes())
}

// ForgetFile drops client-side state for a deleted path. The server
// store is intentionally left alone: that is what lets deduplication
// succeed when the file is later restored (Sect. 4.3 step iv).
func (pl *planner) ForgetFile(path string) {
	delete(pl.prev, path)
}

// ManifestBytes is the metadata volume for announcing n chunk hashes
// to the server during a dedup check.
func ManifestBytes(nChunks int) int64 {
	return int64(nChunks) * (dedup.HashSize + 8)
}
