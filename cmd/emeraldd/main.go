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
// The start and stop order lives in internal/daemon; this file is flag
// parsing and signal handling over it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"emerald/internal/daemon"
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
	antiEntropy := flag.Duration("anti-entropy-interval", 30*time.Second, "replica repair sweep period (fleet mode)")
	leaveOnShutdown := flag.Bool("leave-on-shutdown", false, "on SIGINT/SIGTERM, gracefully leave the fleet (membership handoff + verified blob delivery) before draining")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "emeraldd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *jobs < 1 || *queue < 1 || *jobTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "emeraldd: -jobs and -queue must be >= 1 and -job-timeout positive")
		os.Exit(2)
	}
	cfg := daemon.Config{
		Cache: *cache, Journal: *journal, Pprof: *pprofOn,
		Runner: sweep.RunnerConfig{
			Workers:    *jobs,
			QueueDepth: *queue,
			JobTimeout: *jobTimeout,
			MaxRetries: *retries,
			Watchdog:   *watchdog,
			Guard:      *guardOn,
		},
		Fleet: fleet.Config{
			Self:                *advertise,
			Join:                strings.TrimRight(strings.TrimSpace(*join), "/"),
			Replicas:            *replicas,
			ProbeInterval:       *probeInterval,
			ProbeFails:          *probeFails,
			StealInterval:       *stealInterval,
			AntiEntropyInterval: *antiEntropy,
		},
	}
	switch *journal {
	case "off":
		cfg.Journal = ""
	case "auto":
		cfg.Journal = filepath.Join(*cache, "journal.wal")
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Fleet.Peers = append(cfg.Fleet.Peers, strings.TrimRight(p, "/"))
		}
	}
	if err := run(cfg, *addr, *drainTimeout, *leaveOnShutdown); err != nil {
		fmt.Fprintln(os.Stderr, "emeraldd:", err)
		os.Exit(1)
	}
}

func run(cfg daemon.Config, addr string, drainTimeout time.Duration, leaveOnShutdown bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d, err := daemon.Start(cfg, ln)
	if err != nil {
		return err
	}
	if rec := d.Recovery; rec.Pending > 0 {
		fmt.Fprintf(os.Stderr, "emeraldd: recovered %d incomplete job(s) from journal (%d requeued, %d already cached, %d of those fetched from peer replicas)\n",
			rec.Pending, rec.Requeued, rec.Cached, rec.Reconciled)
	}
	// The actual address, on stdout: scripts parse this to find a
	// daemon started with port 0.
	fmt.Printf("emeraldd: listening on %s (cache %s, %d job workers)\n",
		ln.Addr(), d.Store.Dir(), cfg.Runner.Workers)
	if d.Node != nil {
		info := d.Node.Snapshot()
		fmt.Fprintf(os.Stderr, "emeraldd: fleet mode: self %s, %d member(s), %d replica(s)\n",
			info.Self, len(info.Members), info.Replicas)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	leave := leaveOnShutdown
	select {
	case err := <-d.ServeErr():
		d.Kill()
		return err
	case <-d.LeaveRequested():
		leave = true
		fmt.Fprintln(os.Stderr, "emeraldd: leave requested, draining jobs...")
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "emeraldd: shutting down, draining jobs...")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := d.Stop(drainCtx, leave); err != nil {
		return fmt.Errorf("shutdown incomplete: %w", err)
	}
	fmt.Fprintln(os.Stderr, "emeraldd: drained cleanly")
	return nil
}
