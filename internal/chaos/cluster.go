package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"emerald/internal/daemon"
	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// MemberOpts parameterizes one fleet member the lifecycle driver runs
// in-process. Zero values take sensible soak defaults.
type MemberOpts struct {
	// Exec is the job executor (default sweep.SyntheticExec(0)).
	Exec    sweep.Exec
	Workers int
	// Engine, when set, wraps the member's fleet-internal HTTP traffic
	// with chaos injection.
	Engine *Engine
	// StoreFault, when set, is installed on the member's store.
	StoreFault sweep.StoreFault
	// Fleet knobs.
	Replicas            int
	ProbeInterval       time.Duration
	StealInterval       time.Duration
	AntiEntropyInterval time.Duration
	ProbeFails          int
	Logf                func(format string, args ...any)
}

// Member is one in-process emeraldd: the shared daemon.Daemon assembly
// plus what is chaos-specific — the Engine transport, the store fault,
// an execution counter, and restart on a fixed address. Crash models
// kill -9 (daemon.Kill); Restart replays the journal, reconciles
// journaled jobs against peers holding finished blobs, and re-adopts
// the rest; Leave is the graceful exit with blob handoff.
type Member struct {
	URL  string
	dir  string
	addr string

	opts  MemberOpts
	peers []string // initial membership (static start)
	join  string   // seed URL (dynamic join), mutually exclusive with peers

	mu    sync.Mutex
	ln    net.Listener   // pre-reserved before first Start
	d     *daemon.Daemon // nil while down
	store *sweep.Store   // the last incarnation's, valid even while down
	execs atomic.Int64   // executions this incarnation
}

// Cluster drives a set of members through a storm.
type Cluster struct {
	Members []*Member
	dir     string
}

// NewCluster reserves n listeners (so URLs are known before any node
// starts), builds the members with the full static membership, and
// starts them. mkOpts customizes each member by index (nil = defaults
// for all).
func NewCluster(dir string, n int, mkOpts func(i int) MemberOpts) (*Cluster, error) {
	if mkOpts == nil {
		mkOpts = func(int) MemberOpts { return MemberOpts{} }
	}
	c := &Cluster{dir: dir}
	var urls []string
	for i := 0; i < n; i++ {
		m, err := c.reserve(mkOpts(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Members = append(c.Members, m)
		urls = append(urls, m.URL)
	}
	for _, m := range c.Members {
		m.peers = urls
		if err := m.Start(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// reserve binds a loopback port for the cluster's next member.
func (c *Cluster) reserve(opts MemberOpts) (*Member, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &Member{
		URL:  "http://" + ln.Addr().String(),
		addr: ln.Addr().String(),
		dir:  filepath.Join(c.dir, fmt.Sprintf("m%d", len(c.Members))),
		opts: opts,
		ln:   ln,
	}, nil
}

// Join starts a new member that joins the fleet through the given
// existing member, and appends it to c.Members.
func (c *Cluster) Join(via *Member, opts MemberOpts) (*Member, error) {
	m, err := c.reserve(opts)
	if err != nil {
		return nil, err
	}
	m.join = via.URL
	if err := m.Start(); err != nil {
		return nil, err
	}
	c.Members = append(c.Members, m)
	return m, nil
}

// Close crash-stops every member.
func (c *Cluster) Close() {
	for _, m := range c.Members {
		m.Crash()
	}
}

func (o MemberOpts) withDefaults() MemberOpts {
	if o.Exec == nil {
		o.Exec = sweep.SyntheticExec(0)
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 150 * time.Millisecond
	}
	if o.StealInterval <= 0 {
		o.StealInterval = 100 * time.Millisecond
	}
	if o.AntiEntropyInterval <= 0 {
		o.AntiEntropyInterval = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Start boots (or reboots) the member. On a restart the daemon replays
// the journal: jobs already finished elsewhere in the fleet are pulled
// into the local store first, so they complete as cache hits instead
// of re-executing.
func (m *Member) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.d != nil {
		return fmt.Errorf("chaos: member %s already running", m.URL)
	}
	opts := m.opts.withDefaults()
	ln := m.ln
	m.ln = nil
	if ln == nil {
		// Restart: rebind the fixed address. The previous incarnation's
		// listener closes asynchronously, so give the port a moment.
		var err error
		for i := 0; ; i++ {
			if ln, err = net.Listen("tcp", m.addr); err == nil {
				break
			}
			if i >= 50 {
				return fmt.Errorf("chaos: rebind %s: %w", m.addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	httpc := http.DefaultClient
	if opts.Engine != nil {
		httpc = &http.Client{Transport: opts.Engine.Transport(m.URL, nil)}
	}
	m.execs.Store(0)
	d, err := daemon.Start(daemon.Config{
		Cache:      filepath.Join(m.dir, "cache"),
		Journal:    filepath.Join(m.dir, "journal.wal"),
		StoreFault: opts.StoreFault,
		Runner: sweep.RunnerConfig{
			Workers: opts.Workers,
			Exec: func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
				m.execs.Add(1)
				return opts.Exec(ctx, spec)
			},
		},
		Fleet: fleet.Config{
			Self:                m.URL,
			Peers:               m.peers,
			Join:                m.join,
			Replicas:            opts.Replicas,
			ProbeInterval:       opts.ProbeInterval,
			StealInterval:       opts.StealInterval,
			AntiEntropyInterval: opts.AntiEntropyInterval,
			ProbeFails:          opts.ProbeFails,
			HTTP:                httpc,
			Logf:                opts.Logf,
		},
	}, ln)
	if err != nil {
		return err
	}
	m.d, m.store = d, d.Store
	return nil
}

// Crash is the kill -9 analog (see daemon.Kill). Safe to call twice.
func (m *Member) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.d != nil {
		m.d.Kill()
		m.d = nil
	}
}

// Restart reboots a crashed member on its original address.
func (m *Member) Restart() error { return m.Start() }

// Leave gracefully removes the member (see daemon.Stop): membership
// handoff first, then the runner drains its queued jobs — the HTTP
// surface stays up throughout so an in-flight sweep can collect them —
// and finally the process-analog shuts down.
func (m *Member) Leave(ctx context.Context) error {
	d := m.daemon()
	if d == nil {
		return fmt.Errorf("chaos: member %s not running", m.URL)
	}
	err := d.Stop(ctx, true)
	m.mu.Lock()
	m.d = nil
	m.mu.Unlock()
	return err
}

func (m *Member) daemon() *daemon.Daemon {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.d
}

// Node returns the member's fleet node (nil when down).
func (m *Member) Node() *fleet.Node {
	if d := m.daemon(); d != nil {
		return d.Node
	}
	return nil
}

// Runner returns the member's runner (nil when down).
func (m *Member) Runner() *sweep.Runner {
	if d := m.daemon(); d != nil {
		return d.Runner
	}
	return nil
}

// Store returns the member's store (valid even while down).
func (m *Member) Store() *sweep.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// ExecCount returns how many real executions this incarnation ran.
func (m *Member) ExecCount() int64 { return m.execs.Load() }

// Recovered returns how many journaled jobs the running incarnation
// found at Start (0 while down).
func (m *Member) Recovered() int {
	if d := m.daemon(); d != nil {
		return d.Recovery.Pending
	}
	return 0
}

// WaitReady polls the member's readiness endpoint until it reports
// ready or the deadline passes.
func (m *Member) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(m.URL + "/healthz/ready")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: member %s not ready after %s", m.URL, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
