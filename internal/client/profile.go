// Package client implements the sync-client engine and the behaviour
// profiles of the five services under study.
//
// The engine is one code path with capability switches — chunking,
// bundling, client-side deduplication, delta encoding, compression,
// client-side encryption, connection strategy, polling behaviour —
// because the paper's whole point is that these few design choices
// explain the order-of-magnitude performance differences between
// services (Tab. 1 and Sect. 5). Every profile constant that encodes a
// quantitative observation from the paper cites it.
package client

import (
	"fmt"
	"time"

	"repro/internal/chunker"
	"repro/internal/compressor"
	"repro/internal/httpsim"
)

// ChunkMode selects how a client splits files for transfer.
type ChunkMode int

const (
	// NoChunking transfers each file as a single object (Cloud
	// Drive: "only Cloud Drive does not perform chunking").
	NoChunking ChunkMode = iota
	// FixedChunks uses fixed-size chunks (Dropbox 4 MB, Google
	// Drive 8 MB).
	FixedChunks
	// VariableChunks uses content-defined chunking (SkyDrive and
	// Wuala "apparently change chunk sizes").
	VariableChunks
)

// String names the mode as reported in Table 1.
func (m ChunkMode) String() string {
	switch m {
	case NoChunking:
		return "no"
	case FixedChunks:
		return "fixed"
	case VariableChunks:
		return "var."
	default:
		return "?"
	}
}

// ConnStrategy selects how upload connections are managed (Sect. 4.2).
type ConnStrategy int

const (
	// PersistentBundled reuses storage connections and pipelines
	// multiple files without per-file waits (Dropbox).
	PersistentBundled ConnStrategy = iota
	// PersistentSequential reuses connections but submits files
	// sequentially, waiting for an application-layer acknowledgment
	// between files (SkyDrive, Wuala).
	PersistentSequential
	// PerFileConn opens a new TCP+SSL connection for every file
	// (Google Drive).
	PerFileConn
	// PerFileConnExtra opens a new TCP+SSL storage connection per
	// file plus several fresh control connections per file
	// operation (Cloud Drive: 3 control + 1 storage, Fig. 3).
	PerFileConnExtra
)

// String names the strategy.
func (s ConnStrategy) String() string {
	switch s {
	case PersistentBundled:
		return "persistent+bundled"
	case PersistentSequential:
		return "persistent+sequential"
	case PerFileConn:
		return "per-file-conn"
	case PerFileConnExtra:
		return "per-file-conn+control"
	default:
		return "?"
	}
}

// Profile is the complete behavioural description of a sync client.
type Profile struct {
	Name    string // display name, e.g. "Dropbox"
	Service string // cloud.Spec key, e.g. "dropbox"

	// Capabilities (Table 1).
	ChunkMode     ChunkMode
	ChunkSize     int64 // fixed size, or CDC average
	Bundling      bool
	Compression   compressor.Policy
	Dedup         bool
	DeltaEncoding bool
	Encryption    bool

	// Transfer behaviour.
	Strategy ConnStrategy
	// ChunkCommit makes the client wait one application round trip
	// after each chunk (visible as upload pauses, Sect. 4.1).
	ChunkCommit bool
	// ControlRPCsPerSync is the number of metadata exchanges around
	// one sync batch (list, commit, acknowledge).
	ControlRPCsPerSync int
	// ControlRPCsPerFile is the number of metadata exchanges per
	// file; for PerFileConnExtra each runs on a fresh connection.
	ControlRPCsPerFile int
	// ControlReqBytes/ControlRespBytes size each metadata exchange.
	ControlReqBytes, ControlRespBytes int64

	// Synchronization start-up (Fig. 6a): the client starts its
	// first storage flow DetectBase + DetectPerFile*n after the
	// first file event, plus the bundling aggregation wait when it
	// groups multiple files.
	DetectBase      time.Duration
	DetectPerFile   time.Duration
	AggregationWait time.Duration

	// PerFileClientOverhead is local processing per file during
	// upload (hashing, compression, encryption). It caps Dropbox's
	// effective many-small-file rate at the ~0.8 Mb/s the paper
	// measures despite bundling.
	PerFileClientOverhead time.Duration

	// Background behaviour (Fig. 1).
	PollInterval time.Duration
	// PollPerConn opens a brand-new HTTPS connection per poll
	// (Cloud Drive; ~6 kb/s of background traffic).
	PollPerConn bool
	// PollUpBytes/PollDownBytes are exchanged per poll on the
	// persistent channel.
	PollUpBytes, PollDownBytes int64
	// PollReqBytes/PollRespBytes are the HTTP bodies when
	// PollPerConn is set.
	PollReqBytes, PollRespBytes int64
	// NotifyPlainHTTP runs the notification channel over plain
	// HTTP (Dropbox).
	NotifyPlainHTTP bool
	// StoragePlainHTTP runs storage transfers over plain HTTP —
	// Wuala can afford it because content is already encrypted
	// client-side ("some Wuala storage operations also use HTTP,
	// since users' privacy has already been secured by local
	// encryption", Sect. 3.1).
	StoragePlainHTTP bool

	// Login behaviour: LoginRespBytes received from each of the
	// service's login servers (SkyDrive contacts 13 and downloads
	// ~150 kB in total).
	LoginReqBytes, LoginRespBytes int64

	// HTTP dialect.
	HTTP httpsim.Profile
}

// Validate reports the first capability setting the client engine
// cannot run: an unknown compression policy or chunking mode, a fixed
// chunk size that is not positive, or a content-defined average below
// chunker.MinAverage.
func (p Profile) Validate() error {
	switch p.Compression {
	case compressor.None, compressor.Always, compressor.Smart:
	default:
		return fmt.Errorf("client: profile %q: unknown compression policy %d", p.Name, int(p.Compression))
	}
	switch p.ChunkMode {
	case NoChunking:
	case FixedChunks:
		if p.ChunkSize <= 0 {
			return fmt.Errorf("client: profile %q: fixed chunk size must be > 0 (got %d)", p.Name, p.ChunkSize)
		}
	case VariableChunks:
		if p.ChunkSize < chunker.MinAverage {
			return fmt.Errorf("client: profile %q: content-defined average chunk size must be >= %d (got %d)",
				p.Name, chunker.MinAverage, p.ChunkSize)
		}
	default:
		return fmt.Errorf("client: profile %q: unknown chunk mode %d", p.Name, int(p.ChunkMode))
	}
	return nil
}

// Dropbox: the most sophisticated client in the study — 4 MB fixed
// chunks, bundling, always-on compression, deduplication and delta
// encoding (Tab. 1); fastest start-up on single files; highest
// protocol overhead among the well-behaved services (47% at 100 kB).
func Dropbox() Profile {
	return Profile{
		Name: "Dropbox", Service: "dropbox",
		ChunkMode: FixedChunks, ChunkSize: 4 << 20,
		Bundling:    true,
		Compression: compressor.Always,
		Dedup:       true, DeltaEncoding: true,
		Strategy:           PersistentBundled,
		ChunkCommit:        true,
		ControlRPCsPerSync: 6, ControlRPCsPerFile: 0,
		ControlReqBytes: 1800, ControlRespBytes: 1500,
		DetectBase: 900 * time.Millisecond, DetectPerFile: 8 * time.Millisecond,
		AggregationWait:       1200 * time.Millisecond,
		PerFileClientOverhead: 65 * time.Millisecond,
		PollInterval:          time.Minute,
		PollUpBytes:           175, PollDownBytes: 175, // ~82 b/s
		NotifyPlainHTTP: true,
		LoginReqBytes:   800, LoginRespBytes: 11_000,
		HTTP: httpsim.DefaultProfile,
	}
}

// SkyDrive: variable chunking, no other capability; sequential
// uploads with per-file acknowledgments; by far the slowest
// synchronization start-up (>= 9 s, > 20 s at 100 files); login
// contacts 13 Microsoft Live servers (~150 kB).
func SkyDrive() Profile {
	return Profile{
		Name: "SkyDrive", Service: "skydrive",
		ChunkMode: VariableChunks, ChunkSize: 1 << 20,
		Compression:        compressor.None,
		Strategy:           PersistentSequential,
		ChunkCommit:        true,
		ControlRPCsPerSync: 3, ControlRPCsPerFile: 1,
		ControlReqBytes: 700, ControlRespBytes: 600,
		DetectBase: 9 * time.Second, DetectPerFile: 120 * time.Millisecond,
		PerFileClientOverhead: 10 * time.Millisecond,
		PollInterval:          time.Minute,
		PollUpBytes:           20, PollDownBytes: 20, // ~32 b/s
		LoginReqBytes: 700, LoginRespBytes: 5_300, // x13 servers ~ 150 kB incl. TLS
		HTTP: httpsim.DefaultProfile,
	}
}

// Wuala: client-side convergent encryption with chunk-level
// deduplication (compatible, Sect. 4.3); variable chunks; sequential
// uploads; the quietest poller (every ~5 min); all servers in Europe.
func Wuala() Profile {
	return Profile{
		Name: "Wuala", Service: "wuala",
		ChunkMode: VariableChunks, ChunkSize: 4 << 20,
		Compression:        compressor.None,
		Dedup:              true,
		Encryption:         true,
		StoragePlainHTTP:   true,
		Strategy:           PersistentSequential,
		ChunkCommit:        true,
		ControlRPCsPerSync: 3, ControlRPCsPerFile: 1,
		ControlReqBytes: 600, ControlRespBytes: 500,
		DetectBase: 3800 * time.Millisecond, DetectPerFile: 40 * time.Millisecond,
		PerFileClientOverhead: 70 * time.Millisecond, // encryption cost
		PollInterval:          5 * time.Minute,
		PollUpBytes:           950, PollDownBytes: 950, // ~60 b/s
		LoginReqBytes: 700, LoginRespBytes: 12_000,
		HTTP: httpsim.DefaultProfile,
	}
}

// GoogleDrive: 8 MB fixed chunks and smart compression, but a new
// TCP+SSL connection per file, which cancels the edge network's head
// start on multi-file workloads (Sect. 5.2: 42 s for 100x10 kB).
func GoogleDrive() Profile {
	return Profile{
		Name: "Google Drive", Service: "googledrive",
		ChunkMode: FixedChunks, ChunkSize: 8 << 20,
		Compression:        compressor.Smart,
		Strategy:           PerFileConn,
		ChunkCommit:        true,
		ControlRPCsPerSync: 2, ControlRPCsPerFile: 2,
		ControlReqBytes: 900, ControlRespBytes: 800,
		DetectBase: 2500 * time.Millisecond, DetectPerFile: 10 * time.Millisecond,
		PerFileClientOverhead: 15 * time.Millisecond,
		PollInterval:          40 * time.Second,
		PollUpBytes:           10, PollDownBytes: 10, // ~42 b/s
		LoginReqBytes: 800, LoginRespBytes: 13_000,
		HTTP: httpsim.DefaultProfile,
	}
}

// CloudDrive: the most simplistic client — no capability from Table 1;
// a new TCP+SSL storage connection per file plus three fresh control
// connections per file operation (400 SYNs for 100 files, Fig. 3);
// polling opens a new HTTPS connection every 15 s (~6 kb/s idle —
// about 65 MB per day).
func CloudDrive() Profile {
	return Profile{
		Name: "Cloud Drive", Service: "clouddrive",
		ChunkMode:          NoChunking,
		Compression:        compressor.None,
		Strategy:           PerFileConnExtra,
		ControlRPCsPerSync: 2, ControlRPCsPerFile: 3,
		ControlReqBytes: 800, ControlRespBytes: 700,
		DetectBase: 3200 * time.Millisecond, DetectPerFile: 20 * time.Millisecond,
		PerFileClientOverhead: 10 * time.Millisecond,
		PollInterval:          15 * time.Second,
		PollPerConn:           true,
		PollReqBytes:          2000, PollRespBytes: 3000, // ~6 kb/s
		LoginReqBytes: 800, LoginRespBytes: 12_500,
		HTTP: httpsim.DefaultProfile,
	}
}

// Profiles returns the five paper profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{Dropbox(), SkyDrive(), Wuala(), GoogleDrive(), CloudDrive()}
}

// ProfileFor returns the profile for a service key; ok is false for
// unknown services.
func ProfileFor(service string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Service == service {
			return p, true
		}
	}
	return Profile{}, false
}
