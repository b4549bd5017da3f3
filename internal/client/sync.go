package client

import (
	"time"

	"repro/internal/workload"
)

// perUnitFraming is the application-protocol framing around one chunk
// upload inside a bundled stream (multipart boundaries, chunk ids).
const perUnitFraming = 180

// SyncResult is the client-side view of one synchronization run. The
// benchmark core computes the published metrics from the trace; it
// reads Done to advance the clock past a sync and hands Plans to a
// second device's Download, and cmd/perfbench counts units and bytes
// from Plans.
type SyncResult struct {
	// Start is when the client began network activity for the batch
	// (after change detection and aggregation).
	Start time.Time
	// Done is when the last exchange of the batch completed.
	Done time.Time
	// Plans are the per-file upload plans.
	Plans []FilePlan
	// Deletes counts metadata-only delete operations.
	Deletes int
}

// UploadBytes sums the planned storage upload volume.
func (r SyncResult) UploadBytes() int64 {
	var n int64
	for _, p := range r.Plans {
		n += p.UploadBytes()
	}
	return n
}

// DedupSkipped sums content bytes saved by deduplication.
func (r SyncResult) DedupSkipped() int64 {
	var n int64
	for _, p := range r.Plans {
		n += p.DedupSkipped
	}
	return n
}

// SyncChanges processes all folder changes strictly after `since`,
// assuming the earliest of them happened at eventTime. It models the
// client's change-detection latency (Fig. 6a), plans every file with
// the profile's capabilities, and executes the transfer with the
// profile's connection strategy. The client must be logged in.
func (c *Client) SyncChanges(folder *workload.Folder, since time.Time) SyncResult {
	if c.control == nil {
		panic("client: SyncChanges before Login")
	}
	changes := folder.ChangesSince(since)
	if len(changes) == 0 {
		return SyncResult{}
	}
	eventTime := changes[0].Time

	// Collapse the journal: the last change per path wins.
	lastByPath := make(map[string]workload.ChangeType)
	order := make([]string, 0, len(changes))
	for _, ch := range changes {
		if _, seen := lastByPath[ch.Path]; !seen {
			order = append(order, ch.Path)
		}
		lastByPath[ch.Path] = ch.Type
	}

	// Change detection and aggregation delay (Fig. 6a): base +
	// per-file scan cost, plus the bundling aggregation wait when a
	// batch is grouped.
	p := c.Profile
	delay := p.DetectBase + time.Duration(len(order))*p.DetectPerFile
	if p.Bundling && len(order) > 1 {
		delay += p.AggregationWait
	}
	start := eventTime.Add(c.jitterDur(delay))
	if start.Before(c.loginDone) {
		start = c.loginDone
	}

	res := SyncResult{Start: start}
	for _, path := range order {
		switch lastByPath[path] {
		case workload.Deleted:
			c.plan.ForgetFile(path)
			res.Deletes++
		default:
			f, ok := folder.Get(path)
			if !ok {
				continue // deleted after the journal snapshot
			}
			res.Plans = append(res.Plans, c.plan.PlanFile(path, f.Content()))
		}
	}

	res.Done = c.execute(start, res)
	return res
}

// execute runs the transfer with the profile's connection strategy and
// returns the completion instant.
func (c *Client) execute(start time.Time, res SyncResult) time.Time {
	// Announce phase: the first half of the per-sync control RPCs,
	// carrying the dedup manifest when the capability is on.
	p := c.Profile
	var manifest int64
	if p.Dedup {
		units := 0
		for _, pl := range res.Plans {
			units += len(pl.Units)
		}
		manifest = ManifestBytes(units + int(res.DedupSkipped()/max(p.ChunkSize, 1)))
	}
	now := start
	pre := (p.ControlRPCsPerSync + 1) / 2
	post := p.ControlRPCsPerSync - pre
	for i := 0; i < pre; i++ {
		extra := int64(0)
		if i == 0 {
			extra = manifest
		}
		now = c.controlRPC(now, extra)
	}

	switch p.Strategy {
	case PersistentBundled:
		now = c.execBundled(now, res.Plans)
	case PersistentSequential:
		now = c.execSequential(now, res.Plans)
	case PerFileConn:
		now = c.execPerFile(now, res.Plans, false)
	case PerFileConnExtra:
		now = c.execPerFile(now, res.Plans, true)
	}

	for i := 0; i < post; i++ {
		now = c.controlRPC(now, 0)
	}
	return now
}

// execBundled pipelines every unit of every file over one persistent
// storage session without per-file waits (Dropbox). Only full-size
// chunks of multi-chunk files pay a commit round trip, which is what
// makes the chunk boundaries visible as upload pauses on large files
// (Sect. 4.1) without penalizing batches of small files.
func (c *Client) execBundled(now time.Time, plans []FilePlan) time.Time {
	s := c.ensureStorage(now)
	conn := s.Conn()
	conn.Wait(now)
	sent := false
	for _, plan := range plans {
		if len(plan.Units) == 0 {
			continue
		}
		conn.Idle(c.Profile.PerFileClientOverhead)
		commit := c.Profile.ChunkCommit && len(plan.Units) > 1
		for _, u := range plan.Units {
			_, serverDone := conn.Send(u + perUnitFraming)
			sent = true
			if commit {
				// Per-chunk commit: wait the storage ack.
				conn.Wait(serverDone.Add(conn.RTT() / 2))
			}
		}
	}
	if !sent {
		return now // fully deduplicated batch: no storage traffic
	}
	// One acknowledgment closes the bundled stream.
	_, serverDone := conn.Send(64)
	done := conn.Recv(serverDone, c.Profile.HTTP.RespHeaderBytes)
	return done
}

// execSequential submits files one by one over a persistent session,
// waiting for the application-layer acknowledgment of each chunk and
// each file before proceeding (SkyDrive, Wuala) — the behaviour the
// paper detects by counting packet bursts (Sect. 4.2).
func (c *Client) execSequential(now time.Time, plans []FilePlan) time.Time {
	s := c.ensureStorage(now)
	conn := s.Conn()
	for _, plan := range plans {
		conn.Wait(now)
		conn.Idle(c.Profile.PerFileClientOverhead)
		for _, u := range plan.Units {
			s.Upload(u, 120)
			now = conn.FreeAt()
		}
		if len(plan.Units) == 0 {
			// Fully deduplicated file: metadata-only update.
			now = c.controlRPC(now, ManifestBytes(1))
			continue
		}
		// Per-file metadata update on the control channel.
		for i := 0; i < c.Profile.ControlRPCsPerFile; i++ {
			now = c.controlRPC(now, 0)
		}
	}
	return now
}

// execPerFile opens a fresh TCP+TLS storage connection per file
// (Google Drive), optionally with fresh per-file control connections
// too (Cloud Drive: extra=true, 3 control connections per file
// operation — 400 SYNs for 100 files, Fig. 3).
func (c *Client) execPerFile(now time.Time, plans []FilePlan, extra bool) time.Time {
	p := c.Profile
	for _, plan := range plans {
		if extra {
			for i := 0; i < p.ControlRPCsPerFile; i++ {
				now = c.freshControlRPC(now)
			}
		} else {
			for i := 0; i < p.ControlRPCsPerFile; i++ {
				now = c.controlRPC(now, 0)
			}
		}
		if len(plan.Units) == 0 {
			continue
		}
		s := c.openStorage(now.Add(p.PerFileClientOverhead))
		conn := s.Conn()
		for _, u := range plan.Units {
			_, acked := s.Upload(u, 120)
			if p.ChunkCommit {
				now = acked
			} else {
				now = conn.FreeAt()
			}
		}
		now = s.Close()
	}
	return now
}
