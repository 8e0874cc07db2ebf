// Package daemon is the one assembly of an emeraldd process: store,
// journal, runner, optional fleet node and the HTTP surface, started
// and stopped in one fixed order. cmd/emeraldd is flag parsing and
// signal handling over it; chaos.Member is the same object plus fault
// injection — so the chaos soak exercises the code the binary ships.
//
// Start order: store → journal replay → fleet node → runner (its
// OnStored hook is the node's) → probe + reconcile journaled jobs
// against peers → Recover → HTTP surface → background loops → serve.
// Graceful stop: leave (optional) → drain the runner while HTTP keeps
// answering status → verified handoff (when leaving) → stop the node's
// loops → close HTTP → close the journal. Hard stop skips the leave,
// the drain and the handoff.
package daemon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// Config is everything one daemon is built from.
type Config struct {
	// Cache is the result store directory.
	Cache string
	// Journal is the write-ahead log path ("" disables journaling).
	Journal string
	// Runner parameterizes the job runner. Start fills in Journal and
	// OnStored.
	Runner sweep.RunnerConfig
	// Pprof mounts the Go profiler endpoints.
	Pprof bool
	// StoreFault, when set, is installed on the store.
	StoreFault sweep.StoreFault
	// Fleet makes the daemon a fleet member iff Peers or Join is set.
	// An empty Self defaults to http://<listen address>. A daemon with
	// neither is single-node and serves no /fleet/ routes.
	Fleet fleet.Config
}

// Recovery is what Start found in the journal and did about it.
type Recovery struct {
	Pending    int // accepted-but-unfinished jobs replayed
	Reconciled int // of those, result blobs fetched from peers first
	Requeued   int // re-entered the queue
	Cached     int // completed as cache hits
}

// Daemon is one running assembly.
type Daemon struct {
	Store    *sweep.Store
	Runner   *sweep.Runner
	Node     *fleet.Node // nil on a single-node daemon
	Recovery Recovery

	journal  *sweep.Journal
	srv      *http.Server
	serveErr chan error
	leave    chan struct{}
	stopOnce sync.Once
}

// Start assembles a daemon and serves it on ln, which it owns from
// here on (closed on error and on stop).
func Start(cfg Config, ln net.Listener) (_ *Daemon, err error) {
	defer func() {
		if err != nil {
			ln.Close()
		}
	}()
	store, err := sweep.NewStore(cfg.Cache)
	if err != nil {
		return nil, err
	}
	store.SetFault(cfg.StoreFault)
	d := &Daemon{Store: store, serveErr: make(chan error, 1), leave: make(chan struct{}, 1)}

	var pending []sweep.PendingJob
	if cfg.Journal != "" {
		if d.journal, pending, err = sweep.OpenJournal(cfg.Journal); err != nil {
			return nil, err
		}
	}
	rcfg := cfg.Runner
	rcfg.Journal = d.journal
	if len(cfg.Fleet.Peers) > 0 || cfg.Fleet.Join != "" {
		if cfg.Fleet.Self == "" {
			cfg.Fleet.Self = "http://" + ln.Addr().String()
		}
		if d.Node, err = fleet.New(cfg.Fleet, store); err != nil {
			d.journal.Close() //nolint:errcheck // nothing was appended
			return nil, err
		}
		rcfg.OnStored = d.Node.OnStored
	}
	d.Runner = sweep.NewRunner(store, rcfg)
	api := sweep.NewServer(d.Runner, store)
	api.Pprof = cfg.Pprof
	if d.Node != nil {
		d.Node.SetRunner(d.Runner)
		api.Fleet = d.Node
		// POST /fleet/leave runs the membership handoff inside the node;
		// the owner then finishes with Stop(ctx, true).
		d.Node.OnLeave = func() {
			select {
			case d.leave <- struct{}{}:
			default:
			}
		}
	}
	if len(pending) > 0 {
		d.Recovery.Pending = len(pending)
		if d.Node != nil {
			// Journal-aware failover: a peer may have re-executed these
			// jobs while this daemon was down. Learn who is alive, pull
			// the blobs they hold, and let Recover turn those journal
			// entries into cache hits instead of re-executions.
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			d.Node.ProbeOnce(ctx)
			d.Recovery.Reconciled = d.Node.ReconcilePending(ctx, pending)
			cancel()
		}
		d.Recovery.Requeued, d.Recovery.Cached = d.Runner.Recover(pending)
	}
	if d.Node != nil {
		d.Node.Start()
	}
	d.srv = &http.Server{Handler: api.Handler()}
	go func() { d.serveErr <- d.srv.Serve(ln) }()
	return d, nil
}

// ServeErr delivers the HTTP server's exit (http.ErrServerClosed after
// a stop).
func (d *Daemon) ServeErr() <-chan error { return d.serveErr }

// LeaveRequested fires once a remote POST /fleet/leave has finished
// its membership handoff.
func (d *Daemon) LeaveRequested() <-chan struct{} { return d.leave }

// Stop shuts the daemon down gracefully: with leave, a fleet member
// first leaves the fleet (membership handoff; a no-op if a remote
// leave already ran); then the runner drains while HTTP keeps
// answering status — new submissions get 503, readiness reports
// "draining" — and ctx bounds the drain, after which in-flight jobs
// are cancelled. The daemon is down when Stop returns, whatever it
// reports.
func (d *Daemon) Stop(ctx context.Context, leave bool) (err error) {
	d.stopOnce.Do(func() {
		leave = leave && d.Node != nil
		if leave {
			if err = d.Node.Leave(ctx); err != nil {
				leave = false
			}
		}
		err = errors.Join(err, d.Runner.Shutdown(ctx))
		if d.Node != nil {
			if leave {
				// Results produced while draining replicated fire-and-forget;
				// hand them off again, verified, before the surface disappears.
				d.Node.Handoff(ctx)
			}
			// After the drain: draining jobs still replicate their results,
			// and Close waits for those pushes.
			d.Node.Close()
		}
		httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if d.srv.Shutdown(httpCtx) != nil {
			d.srv.Close() //nolint:errcheck // stragglers lose their connection
		}
		err = errors.Join(err, d.journal.Close())
	})
	return err
}

// Kill is the kill -9 analog: the listener is yanked, in-flight jobs
// are aborted, nothing is drained or handed off, and the journal keeps
// whatever was accepted. A no-op on a stopped daemon.
func (d *Daemon) Kill() {
	d.stopOnce.Do(func() {
		d.srv.Close() //nolint:errcheck // crash semantics: connections die
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d.Runner.Shutdown(ctx) //nolint:errcheck // forced abort
		if d.Node != nil {
			d.Node.Close()
		}
		d.journal.Close() //nolint:errcheck
	})
}
