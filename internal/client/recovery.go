package client

import (
	"time"

	"repro/internal/workload"
)

// RecoveryResult reports an upload driven through failures.
type RecoveryResult struct {
	// Completed reports whether every unit eventually landed; false
	// means the retry cap was hit with no forward progress.
	Completed bool
	// Done is when the upload finally completed (or gave up).
	Done time.Time
	// Retries counts interrupted transfer units that had to be
	// retransmitted from the start of the unit.
	Retries int
	// CleanBytes is the storage payload one failure-free pass would
	// have uploaded; everything beyond it in the trace is waste.
	CleanBytes int64
}

// maxUnitRetries caps retransmissions of one unit so a failure
// interval shorter than a unit's transfer time terminates instead of
// looping forever; hitting the cap means the transfer cannot make
// progress (the no-chunking pathology the Sect. 4.1 study exposes).
const maxUnitRetries = 8

// RecoveryUpload synchronizes the folder's pending changes while the
// storage path fails every `every` of wall-clock time (the connection
// is reset mid-transfer; the client re-dials and retransmits the
// interrupted unit from its beginning).
//
// The transfer unit is the chunk, so this is the paper's Sect. 4.1
// argument made quantitative: a chunking client loses at most one
// chunk of progress per failure, while a client that uploads files as
// single objects (Cloud Drive) restarts whole files and may never
// finish.
func (c *Client) RecoveryUpload(folder *workload.Folder, since time.Time, every time.Duration) RecoveryResult {
	if c.control == nil {
		panic("client: RecoveryUpload before Login")
	}
	if every <= 0 {
		panic("client: non-positive failure interval")
	}
	changes := folder.ChangesSince(since)
	if len(changes) == 0 {
		return RecoveryResult{Completed: true}
	}
	start := changes[0].Time.Add(c.Profile.DetectBase)

	var res RecoveryResult
	for _, ch := range changes {
		f, ok := folder.Get(ch.Path)
		if !ok {
			continue
		}
		plan := c.plan.PlanFile(ch.Path, f.Content())
		for _, u := range plan.Units {
			res.CleanBytes += u
		}

		s := c.openStorage(start)
		conn := s.Conn()
		nextFail := start.Add(every)
		for _, u := range plan.Units {
			retries := 0
			for {
				conn.Wait(start)
				_, cut, last := conn.SendUntil(u+perUnitFraming, nextFail)
				if !cut {
					// Unit landed; wait the commit ack.
					start = last.Add(conn.RTT() / 2).Add(conn.Server().ProcDelay).Add(conn.RTT() / 2)
					break
				}
				// Mid-unit failure: reset, re-dial, retransmit
				// the unit from scratch.
				conn.Abort()
				res.Retries++
				retries++
				nextFail = last.Add(every)
				if retries >= maxUnitRetries {
					// No forward progress is possible.
					res.Done = last
					return res
				}
				s = c.openStorage(last)
				conn = s.Conn()
				start = conn.EstablishedAt()
			}
		}
		s.Close()
	}
	res.Completed = true
	res.Done = start
	return res
}
