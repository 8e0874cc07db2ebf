// Command emeraldd is the long-running simulation service: it accepts
// simulation jobs over HTTP, runs them on a bounded worker pool with
// per-job timeouts, and caches results in an on-disk content-addressed
// store keyed by the canonical job spec (sound because simulations are
// bit-identical — see DESIGN.md, "Simulation service").
//
// Usage:
//
//	emeraldd -addr 127.0.0.1:8321 -cache .emerald-cache
//	emeraldd -addr 127.0.0.1:0 -jobs 4 -job-timeout 10m
//
// API: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/diag, DELETE
// /jobs/{id}, GET /results/{key}, GET /metrics (JSON, or prometheus
// text exposition via Accept), GET /healthz{,/live,/ready}, and — with
// -pprof — GET /debug/pprof/.
//
// Crash safety: accepted jobs are recorded in a write-ahead journal
// (fsynced before POST /jobs acknowledges) and requeued on restart, so
// a kill -9 mid-sweep loses nothing — deterministic simulation makes a
// requeue equivalent to a resume, and already-stored results complete
// as cache hits. SIGINT/SIGTERM trigger a graceful shutdown that
// drains queued and in-flight jobs while the HTTP surface keeps
// answering status (readiness reports "draining"); the drain is
// bounded by -drain-timeout, after which in-flight simulations are
// cancelled through their contexts.
//
// Fleet mode: -peers joins this daemon into a distributed sweep plane
// of emeraldd nodes (see internal/fleet): jobs and result blobs are
// placed by consistent hashing on the spec key, idle nodes steal
// queued work from busy peers, completed results are replicated to
// -replicas ring owners, and a periodic anti-entropy sweep heals
// corrupt or missing replicas.
//
//	emeraldd -addr 127.0.0.1:8401 \
//	  -peers http://127.0.0.1:8401,http://127.0.0.1:8402,http://127.0.0.1:8403
//
// The env var EMERALD_SLEEP_EXEC_MS=<n> replaces the simulator with a
// synthetic executor that sleeps n milliseconds per job (benchmark
// harnesses use it to measure fleet-plane scheduling independently of
// simulation CPU cost; results are NOT simulations).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"emerald/internal/chaos"
	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
	cache := flag.String("cache", ".emerald-cache", "content-addressed result store directory")
	journal := flag.String("journal", "auto", "job journal path for crash recovery (\"auto\" = <cache>/journal.wal, \"off\" disables)")
	jobs := flag.Int("jobs", 2, "concurrently executing jobs (each job may additionally use -workers-style tick parallelism from its spec)")
	queue := flag.Int("queue", 1024, "maximum queued jobs")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job execution timeout")
	retries := flag.Int("retries", 2, "retry attempts for transient job failures")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain budget before in-flight jobs are cancelled")
	watchdog := flag.Uint64("watchdog", 5_000_000, "abort a job's simulation after this many cycles without forward progress (0 disables)")
	guardOn := flag.Bool("guard", false, "run cycle-level microarchitectural invariant checks in every job")
	pprofOn := flag.Bool("pprof", false, "mount Go profiler endpoints under /debug/pprof/ (off by default; exposes process internals)")
	peers := flag.String("peers", "", "comma-separated base URLs of every fleet member (including this node) — enables fleet mode")
	join := flag.String("join", "", "base URL of an existing fleet member to join through — enables fleet mode with dynamic membership")
	advertise := flag.String("advertise", "", "this node's base URL as it appears in -peers (default http://<listen addr>)")
	replicas := flag.Int("replicas", 2, "ring owners holding each completed result blob (fleet mode)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe period (fleet mode)")
	probeFails := flag.Int("probe-fails", 3, "consecutive probe failures before a peer is marked down; one success recovers it (fleet mode)")
	stealInterval := flag.Duration("steal-interval", 500*time.Millisecond, "idle work-steal period (fleet mode)")
	stealBatch := flag.Int("steal-batch", 4, "max queued specs pulled per steal (fleet mode)")
	antiEntropy := flag.Duration("anti-entropy-interval", 30*time.Second, "replica repair sweep period (fleet mode)")
	fleetGC := flag.Bool("fleet-gc", false, "let anti-entropy delete blobs this node no longer owns once every owner holds a copy (fleet mode)")
	leaveOnShutdown := flag.Bool("leave-on-shutdown", false, "on SIGINT/SIGTERM, gracefully leave the fleet (membership handoff + verified blob delivery) before draining")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable seeded fault injection on fleet-internal traffic and the result store (0 = off; same seed reproduces the same fault schedule)")
	chaosDrop := flag.Float64("chaos-drop", 0.05, "probability an outbound fleet request is dropped (with -chaos-seed)")
	chaosDelay := flag.Float64("chaos-delay", 0.10, "probability an outbound fleet request is stalled (with -chaos-seed)")
	chaosMaxDelay := flag.Duration("chaos-max-delay", 10*time.Millisecond, "upper bound of an injected stall (with -chaos-seed)")
	chaosErr5xx := flag.Float64("chaos-err5xx", 0.05, "probability an outbound fleet request is answered by a synthetic 503 (with -chaos-seed)")
	chaosTruncate := flag.Float64("chaos-truncate", 0.02, "probability a fleet response body is truncated mid-stream (with -chaos-seed)")
	chaosTorn := flag.Float64("chaos-torn", 0, "probability a result-store write lands truncated (with -chaos-seed)")
	chaosFlip := flag.Float64("chaos-flip", 0, "probability a result-store write lands with a flipped byte (with -chaos-seed)")
	chaosENOSPC := flag.Float64("chaos-enospc", 0, "probability a result-store write fails like a full disk (with -chaos-seed)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "emeraldd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *jobs < 1 || *queue < 1 || *jobTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "emeraldd: -jobs and -queue must be >= 1 and -job-timeout positive")
		os.Exit(2)
	}
	cfg := daemonConfig{
		addr: *addr, cache: *cache, journal: *journal,
		jobs: *jobs, queue: *queue,
		jobTimeout: *jobTimeout, retries: *retries, drainTimeout: *drainTimeout,
		watchdog: *watchdog, guard: *guardOn,
		pprof:           *pprofOn,
		leaveOnShutdown: *leaveOnShutdown,
		fleet: fleet.Config{
			Self:                *advertise,
			Join:                strings.TrimRight(strings.TrimSpace(*join), "/"),
			Replicas:            *replicas,
			ProbeInterval:       *probeInterval,
			ProbeFails:          *probeFails,
			StealInterval:       *stealInterval,
			StealBatch:          *stealBatch,
			AntiEntropyInterval: *antiEntropy,
			GCUnowned:           *fleetGC,
		},
	}
	if *chaosSeed != 0 {
		cfg.chaos = &chaos.Config{
			Seed:      *chaosSeed,
			Drop:      *chaosDrop,
			Delay:     *chaosDelay,
			MaxDelay:  *chaosMaxDelay,
			Err5xx:    *chaosErr5xx,
			Truncate:  *chaosTruncate,
			TornWrite: *chaosTorn, BitFlip: *chaosFlip, NoSpace: *chaosENOSPC,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "emeraldd: "+format+"\n", args...)
			},
		}
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.fleet.Peers = append(cfg.fleet.Peers, strings.TrimRight(p, "/"))
		}
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "emeraldd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr, cache, journal     string
	jobs, queue              int
	jobTimeout, drainTimeout time.Duration
	retries                  int
	watchdog                 uint64
	guard                    bool
	pprof                    bool
	leaveOnShutdown          bool
	fleet                    fleet.Config  // fleet mode iff Peers or Join is set
	chaos                    *chaos.Config // seeded fault injection (nil = off)
}

func run(cfg daemonConfig) error {
	store, err := sweep.NewStore(cfg.cache)
	if err != nil {
		return err
	}

	// Open the journal and learn which jobs a previous process accepted
	// but never finished.
	var (
		journal *sweep.Journal
		pending []sweep.PendingJob
	)
	switch cfg.journal {
	case "off":
	case "auto":
		cfg.journal = filepath.Join(store.Dir(), "journal.wal")
		fallthrough
	default:
		if journal, pending, err = sweep.OpenJournal(cfg.journal); err != nil {
			return err
		}
		defer journal.Close()
	}

	// Listen before the runner exists: fleet mode derives the default
	// advertised URL from the bound address.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	rcfg := sweep.RunnerConfig{
		Workers:    cfg.jobs,
		QueueDepth: cfg.queue,
		JobTimeout: cfg.jobTimeout,
		MaxRetries: cfg.retries,
		Watchdog:   cfg.watchdog,
		Guard:      cfg.guard,
		Journal:    journal,
	}
	if ms := os.Getenv("EMERALD_SLEEP_EXEC_MS"); ms != "" {
		d, err := strconv.Atoi(ms)
		if err != nil || d < 0 {
			return fmt.Errorf("bad EMERALD_SLEEP_EXEC_MS %q", ms)
		}
		rcfg.Exec = sweep.SyntheticExec(time.Duration(d) * time.Millisecond)
		fmt.Fprintf(os.Stderr, "emeraldd: EMERALD_SLEEP_EXEC_MS=%d — synthetic sleep executor (bench mode; results are NOT simulations)\n", d)
	}

	fleetMode := len(cfg.fleet.Peers) > 0 || cfg.fleet.Join != ""
	var engine *chaos.Engine
	if cfg.chaos != nil {
		if !fleetMode {
			return fmt.Errorf("-chaos-seed needs fleet mode (-peers or -join)")
		}
		engine = chaos.New(*cfg.chaos)
	}

	var node *fleet.Node
	if fleetMode {
		if cfg.fleet.Self == "" {
			cfg.fleet.Self = "http://" + ln.Addr().String()
		}
		if engine != nil {
			cfg.fleet.HTTP = &http.Client{Transport: engine.Transport(cfg.fleet.Self, nil)}
			if c := cfg.chaos; c.TornWrite > 0 || c.BitFlip > 0 || c.NoSpace > 0 {
				store.SetFault(engine.StoreFault(cfg.fleet.Self))
			}
			fmt.Fprintf(os.Stderr, "emeraldd: chaos fault schedule:\n%s", engine.Schedule())
		}
		if node, err = fleet.New(cfg.fleet, store); err != nil {
			return err
		}
		rcfg.OnStored = node.OnStored
	}

	runner := sweep.NewRunner(store, rcfg)
	if node != nil {
		node.SetRunner(runner)
	}
	if len(pending) > 0 {
		if node != nil {
			// Journal-aware failover: a peer may have re-executed these
			// jobs while this daemon was down. Learn who is alive, pull
			// blobs they already hold, and let Recover turn those journal
			// entries into cache hits instead of re-executions.
			rctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			node.ProbeOnce(rctx)
			if fetched := node.ReconcilePending(rctx, pending); fetched > 0 {
				fmt.Fprintf(os.Stderr, "emeraldd: reconciled %d journaled job(s) from peer replicas\n", fetched)
			}
			cancel()
		}
		requeued, cached := runner.Recover(pending)
		fmt.Fprintf(os.Stderr, "emeraldd: recovered %d incomplete job(s) from journal (%d requeued, %d already cached)\n",
			len(pending), requeued, cached)
	}
	api := sweep.NewServer(runner, store)
	api.Pprof = cfg.pprof
	leaveRequested := make(chan struct{}, 1)
	if node != nil {
		api.Fleet = node
		// POST /fleet/leave asks this daemon to exit gracefully: the
		// membership handoff runs first (inside node.Leave), then the
		// normal drain path below.
		node.OnLeave = func() {
			select {
			case leaveRequested <- struct{}{}:
			default:
			}
		}
		node.Start()
	}
	srv := &http.Server{Handler: api.Handler()}

	// The actual address, on stdout: scripts parse this to find a
	// daemon started with port 0.
	fmt.Printf("emeraldd: listening on %s (cache %s, %d job workers)\n",
		ln.Addr(), store.Dir(), cfg.jobs)
	if node != nil {
		fmt.Fprintf(os.Stderr, "emeraldd: fleet mode: self %s, %d member(s), %d replica(s)\n",
			cfg.fleet.Self, len(cfg.fleet.Peers), cfg.fleet.Replicas)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	leaving := false
	select {
	case err := <-serveErr:
		return err
	case <-leaveRequested:
		// POST /fleet/leave already ran the membership handoff inside
		// node.Leave; what remains is the drain and a final verified
		// handoff of results produced while draining.
		leaving = true
		fmt.Fprintln(os.Stderr, "emeraldd: leave requested, draining jobs...")
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "emeraldd: shutting down, draining jobs...")
	}

	// Drain the runner while HTTP stays up: new submissions get 503 +
	// Retry-After, readiness reports "draining", and status endpoints
	// keep answering until the last job finishes. Only then does the
	// HTTP server close.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancelDrain()
	if node != nil && cfg.leaveOnShutdown && !leaving {
		if err := node.Leave(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "emeraldd: fleet leave:", err)
		} else {
			leaving = true
		}
	}
	drainErr := runner.Shutdown(drainCtx)
	if node != nil {
		if leaving {
			// Results produced while draining replicated fire-and-forget;
			// hand them off again, verified, before the surface disappears.
			node.Handoff(drainCtx)
		}
		// After the drain: draining jobs still replicate their results,
		// and Close waits for those pushes.
		node.Close()
	}

	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "emeraldd: http shutdown:", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "emeraldd: drained cleanly")
	return nil
}
