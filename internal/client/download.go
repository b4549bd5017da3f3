package client

import (
	"time"

	"repro/internal/cloud"
)

// Download fetches the given upload plans onto this device — the
// other half of synchronization: a second device learns about new
// content (via its notification channel) and pulls it from storage.
// The transferred volume per file matches what the uploader stored
// (post-compression/delta/encryption unit bytes); the connection
// strategy mirrors the client's upload behaviour.
//
// It returns when the device holds all content.
func (c *Client) Download(plans []FilePlan, at time.Time) time.Time {
	if c.control == nil {
		panic("client: Download before Login")
	}
	// Metadata first: what changed and where to fetch it.
	now := c.controlRPC(at, 0)

	p := c.Profile
	switch p.Strategy {
	case PersistentBundled, PersistentSequential:
		s := c.ensureStorage(now)
		conn := s.Conn()
		for _, plan := range plans {
			conn.Wait(now)
			for _, u := range plan.Units {
				now = s.Do(200, u)
			}
			if len(plan.Units) == 0 && p.Dedup {
				// Content known server-side; device B still
				// has to fetch the bytes it lacks locally.
				now = s.Do(200, plan.FileBytes)
			}
		}
	default: // per-file connection strategies
		for _, plan := range plans {
			if p.Strategy == PerFileConnExtra {
				for i := 0; i < p.ControlRPCsPerFile; i++ {
					now = c.freshControlRPC(now)
				}
			}
			s := c.openStorage(now)
			for _, u := range plan.Units {
				now = s.Do(200, u)
			}
			now = s.Close()
		}
	}
	return now
}

// NextNotification returns when this device learns about an update
// committed at `committed`: immediately (one notification-channel
// round trip) for push-style clients like Dropbox's long-poll, or at
// the next scheduled poll for everyone else.
func (c *Client) NextNotification(committed time.Time) time.Time {
	p := c.Profile
	if p.NotifyPlainHTTP {
		// Long-poll push: the pending response returns at once.
		return committed.Add(c.notify.Conn().RTT())
	}
	// Poll-based: the first poll tick at or after the commit.
	elapsed := committed.Sub(c.loginDone)
	if elapsed < 0 {
		elapsed = 0
	}
	ticks := elapsed/p.PollInterval + 1
	at := c.loginDone.Add(ticks * p.PollInterval)
	// The poll exchange itself takes a round trip to the control
	// server before the client knows.
	ctl := c.Deploy.HostsByRole(c.clientFacingRole(cloud.Control))[0]
	return at.Add(c.Net.BaseRTT(c.Host, ctl))
}
