package client

import (
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/dnssim"
	"repro/internal/httpsim"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

// Client is one running sync client on the test computer. It behaves
// according to its Profile and emits all traffic into the trace sink
// via the transport simulator; it exposes no measurement results
// itself — the benchmark core derives every metric from the trace,
// exactly as the paper's sniffer does. The client only ever records
// (it never reads the trace back), so it works identically against a
// buffering Capture and a streaming Streamer.
type Client struct {
	Profile Profile
	Deploy  *cloud.Deployment
	Net     *netem.Network
	Host    *netem.Host
	Cap     trace.Sink
	DNS     *dnssim.System

	rng  *sim.RNG
	http *httpsim.Client
	plan *planner
	seq  int64 // per-client operation counter for RNG forking

	answers []string // DNS answer scratch, reused by every resolve

	control *httpsim.Session // persistent control channel
	notify  *httpsim.Session // notification channel (may equal control)
	storage *httpsim.Session // persistent storage channel

	loginDone time.Time
}

// Config wires a client into a testbed.
type Config struct {
	Profile Profile
	Deploy  *cloud.Deployment
	Net     *netem.Network
	Host    *netem.Host // the test computer
	Cap     trace.Sink  // where the client's traffic is recorded
	DNS     *dnssim.System
	RNG     *sim.RNG
}

// New creates a client. It performs no traffic until Login.
func New(cfg Config) *Client {
	if cfg.Profile.Service != cfg.Deploy.Spec.Service {
		panic(fmt.Sprintf("client: profile %q wired to deployment %q",
			cfg.Profile.Service, cfg.Deploy.Spec.Service))
	}
	dialer := tcpsim.NewDialer(cfg.Net, cfg.Cap, cfg.Host)
	return &Client{
		Profile: cfg.Profile,
		Deploy:  cfg.Deploy,
		Net:     cfg.Net,
		Host:    cfg.Host,
		Cap:     cfg.Cap,
		DNS:     cfg.DNS,
		rng:     cfg.RNG,
		http:    httpsim.NewClient(dialer, cfg.Profile.HTTP),
		plan:    newPlanner(cfg.Profile, cfg.Deploy.Store),
	}
}

// clientFacingRole maps a logical role to the role the client actually
// dials: services with an edge network terminate everything at edges.
func (c *Client) clientFacingRole(r cloud.Role) cloud.Role {
	if c.Deploy.Spec.EdgeNetwork {
		return cloud.Edge
	}
	return r
}

// resolve performs the client's DNS lookup for a role and returns the
// chosen front-end host plus the DNS name used (kept on the flow
// records for the trace classifier).
func (c *Client) resolve(role cloud.Role) (*netem.Host, string) {
	role = c.clientFacingRole(role)
	name := c.Deploy.DNSName(role)
	c.answers = c.DNS.AppendResolve(c.answers[:0], name, c.Host.Coord)
	if len(c.answers) == 0 {
		panic("client: name does not resolve: " + name)
	}
	h, ok := c.Net.HostByAddr(c.answers[0])
	if !ok {
		panic("client: resolved address has no host: " + c.answers[0])
	}
	return h, name
}

// Login authenticates the client starting at `at`: it contacts the
// service's login servers (13 for SkyDrive, Sect. 3.1), keeps one
// control session open, and establishes the notification channel.
// It returns when login completes.
func (c *Client) Login(at time.Time) time.Time {
	p := c.Profile
	ctlRole := c.clientFacingRole(cloud.Control)
	hosts := c.Deploy.HostsByRole(ctlRole)
	name := c.Deploy.DNSName(ctlRole)
	count := c.Deploy.Spec.LoginServerCount
	if count <= 0 {
		count = 1
	}

	now := at
	for i := 0; i < count; i++ {
		h := hosts[i%len(hosts)]
		if c.Deploy.Spec.EdgeNetwork {
			// All traffic terminates at the nearest edge.
			h = c.Deploy.NearestEdge(c.Host.Coord)
		}
		s := c.http.Open(h, name, now)
		now = s.Do(p.LoginReqBytes, p.LoginRespBytes)
		if i == 0 {
			c.control = s // keep-alive control channel
			continue
		}
		s.Close()
	}

	// Notification channel: Dropbox runs it over plain HTTP against
	// dedicated servers; other services notify on the control
	// channel.
	if p.NotifyPlainHTTP {
		nHosts := c.Deploy.HostsByRole(cloud.Notification)
		nName := c.Deploy.DNSName(cloud.Notification)
		notifyHTTP := httpsim.NewClient(c.http.Dialer, httpsim.Profile{
			TLS:            tcpsim.PlainTCP,
			ReqHeaderBytes: 400, RespHeaderBytes: 250,
		})
		c.notify = notifyHTTP.Open(nHosts[0], nName, now)
		now = c.notify.Do(100, 120) // subscribe
	} else {
		c.notify = c.control
	}
	c.loginDone = now
	return now
}

// InstallPoller schedules the client's background keep-alive behaviour
// on the given scheduler (Fig. 1): every PollInterval it exchanges a
// small amount of data — on the persistent notification channel, or,
// for Cloud Drive, over a brand-new HTTPS connection each time.
func (c *Client) InstallPoller(sched *sim.Scheduler) {
	p := c.Profile
	sched.Every(p.PollInterval, func(s *sim.Scheduler) bool {
		now := s.Clock.Now()
		if p.PollPerConn {
			h, name := c.resolve(cloud.Control)
			c.http.DoOnce(h, name, now, p.PollReqBytes, p.PollRespBytes)
			return true
		}
		conn := c.notify.Conn()
		conn.Wait(now)
		_, serverDone := conn.Send(p.PollUpBytes)
		conn.Recv(serverDone, p.PollDownBytes)
		return true
	})
}

// storageHTTP returns the HTTP client used for storage transfers:
// plain HTTP when the profile says so (Wuala), the regular HTTPS
// client otherwise.
func (c *Client) storageHTTP() *httpsim.Client {
	if !c.Profile.StoragePlainHTTP {
		return c.http
	}
	p := c.Profile.HTTP
	p.TLS = tcpsim.PlainTCP
	return httpsim.NewClient(c.http.Dialer, p)
}

// ensureStorage returns the persistent storage session, opening it on
// first use at time `at`.
func (c *Client) ensureStorage(at time.Time) *httpsim.Session {
	if c.storage == nil {
		h, name := c.resolve(cloud.Storage)
		c.storage = c.storageHTTP().Open(h, name, at)
	}
	return c.storage
}

// openStorage opens a fresh storage session (per-file strategies).
func (c *Client) openStorage(at time.Time) *httpsim.Session {
	h, name := c.resolve(cloud.Storage)
	return c.storageHTTP().Open(h, name, at)
}

// controlRPC performs one metadata exchange on the persistent control
// channel, starting no earlier than `at`, with extra bytes appended to
// the request (dedup manifests). It returns the completion instant.
func (c *Client) controlRPC(at time.Time, extraReq int64) time.Time {
	conn := c.control.Conn()
	conn.Wait(at)
	return c.control.Do(c.Profile.ControlReqBytes+extraReq, c.Profile.ControlRespBytes)
}

// freshControlRPC performs one metadata exchange on a brand-new
// TCP+TLS connection (Cloud Drive opens 3 of these per file
// operation, Sect. 4.2) and returns the completion instant.
func (c *Client) freshControlRPC(at time.Time) time.Time {
	h, name := c.resolve(cloud.Control)
	return c.http.DoOnce(h, name, at, c.Profile.ControlReqBytes, c.Profile.ControlRespBytes)
}

// jitterDur applies ±10% deterministic jitter to a duration, modelling
// the scheduling noise that gives the 24 repetitions their dispersion.
func (c *Client) jitterDur(d time.Duration) time.Duration {
	c.seq++
	spread := int64(d) / 5
	return time.Duration(c.rng.Fork(c.seq).Jitter(int64(d), spread))
}
