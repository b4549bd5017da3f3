package client

import (
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
// (deduplication) and per-chunk delta signatures (delta encoding).
// State that no capability of the profile will ever read — chunk
// hashes without dedup, signatures without delta encoding — is not
// computed at all.
//
// Files arrive as workload.Content: a lazy descriptor, a descriptor
// with one splice (an edited generated file), or eager bytes. Every
// form plans in one loop over the chunk geometry, which the size alone
// decides except under content-defined chunking. Bytes are read only
// when a capability genuinely needs them: content-defined chunking,
// hashing for dedup, delta signatures, encryption, a compression-size
// cache miss, or compressing a chunk no descriptor names. A
// capability-poor profile (Cloud Drive: no chunking, no compression)
// plans a whole upload of a descriptor, plain or spliced, from its
// size alone — zero content bytes ever exist — which removes what used
// to be ~50% of its campaign repetitions. Chunks of spliced content
// that end before the splice resolve compression sizes through the
// base descriptor's keys. Lazy and spliced content materialise into a
// pooled buffer (workload.GetBuffer) released at the end of each plan;
// nothing the planner retains (hashes, signatures, sizes) aliases it.
type planner struct {
	profile Profile
	cdc     *chunker.ContentDefined          // VariableChunks only
	store   *dedup.Store                     // the service's server-side chunk store
	sigs    map[string][]*deltaenc.Signature // per path, per chunk index

	// Scratch buffers reused across chunks and files.
	encBuf []byte // ciphertext (Encryption)
	litBuf []byte // delta literal runs (DeltaEncoding)
}

func newPlanner(p Profile, store *dedup.Store) *planner {
	pl := &planner{
		profile: p,
		store:   store,
		sigs:    make(map[string][]*deltaenc.Signature),
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
// materialises output. A plaintext chunk whose window the content can
// name as a descriptor's bytes (Content.Window) resolves through the
// keyed size cache, skipping even the content hash on repeats; the key
// is exact because it names the same bytes. Any other chunk is sized
// by its content hash, or by its length when the policy never
// compresses.
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

	oldSigs := pl.sigs[path]
	var newSigs []*deltaenc.Signature
	if prof.DeltaEncoding {
		newSigs = make([]*deltaenc.Signature, 0, len(lens))
	}
	// Content addresses, signatures and ciphertext read every chunk.
	readsChunks := prof.Dedup || prof.DeltaEncoding || prof.Encryption

	var next int64
	kept := 0
	for i, ln := range lens {
		off := next
		next += ln
		var chunk, payload []byte
		if readsChunks {
			chunk = src.get()[off : off+ln]
			payload = chunk
		}
		if prof.Encryption {
			// Convergent encryption: equal chunks keep equal
			// ciphertexts, so dedup below still works. The scratch
			// buffer is safe to reuse because nothing below retains
			// the ciphertext — the store is content-addressed by
			// hash and size only.
			payload, _ = cryptobox.EncryptInto(pl.encBuf[:0], chunk)
			pl.encBuf = payload
		}
		if prof.DeltaEncoding {
			newSigs = append(newSigs, deltaenc.Sign(chunk, deltaenc.DefaultBlockSize))
		}

		// Content addresses exist to be announced to the server; a
		// client without the capability never computes them. One
		// lookup decides both the dedup verdict and the insert: an
		// already-present chunk is the hit, a new one is stored and
		// uploaded below.
		if prof.Dedup && !pl.store.PutHashed(dedup.HashBytes(payload), ln) {
			plan.DedupSkipped += ln
			continue
		}

		var wire int64
		switch d, keyed := content.Window(off, ln); {
		case prof.DeltaEncoding && i < len(oldSigs) && oldSigs[i] != nil:
			wire = pl.deltaSize(oldSigs[i], chunk)
		case keyed && !prof.Encryption:
			wire = compressor.TransmitSizeKeyed(prof.Compression, descChunkKey(d, off, ln), ln,
				func() []byte { return src.get()[off : off+ln] })
		case prof.Compression == compressor.None:
			wire = ln // ciphertext is as long as the plaintext
		default:
			if payload == nil {
				payload = src.get()[off : off+ln]
			}
			wire = compressor.TransmitSize(prof.Compression, payload)
		}
		lens[kept] = wire
		kept++
	}
	if kept > 0 {
		plan.Units = lens[:kept]
	}

	if prof.DeltaEncoding {
		pl.sigs[path] = newSigs
	}
	src.release()
	return plan
}

// deltaSize is the wire size of chunk sent as a delta against the
// previous revision's signature: the literal bytes still benefit from
// compression; the copy-op framing does not.
func (pl *planner) deltaSize(old *deltaenc.Signature, chunk []byte) int64 {
	d := deltaenc.Compute(old, chunk)
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
	delete(pl.sigs, path)
}

// ManifestBytes is the metadata volume for announcing n chunk hashes
// to the server during a dedup check.
func ManifestBytes(nChunks int) int64 {
	return int64(nChunks) * (dedup.HashSize + 8)
}
