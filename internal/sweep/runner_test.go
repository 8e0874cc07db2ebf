package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// wlSpec returns a valid, distinct spec per workload id.
func wlSpec(w int) Spec {
	return Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: w}
}

func newTestRunner(t *testing.T, cfg RunnerConfig) *Runner {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(st, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
	})
	return r
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, r *Runner, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := r.Job(id); ok && j.Terminal() {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

// okExec returns a minimal successful result for any spec.
func okExec(_ context.Context, spec Spec) (*Result, error) {
	return &Result{Spec: spec.Canonical(), Cycles: []uint64{1, 2, 3}}, nil
}

// A panicking job must fail alone: the worker survives and later jobs
// on the same runner still execute.
func TestRunnerPanicIsolation(t *testing.T) {
	r := newTestRunner(t, RunnerConfig{
		Workers: 1,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec.Workload == 1 {
				panic("poisoned job")
			}
			return okExec(ctx, spec)
		},
	})
	bad, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.Submit(wlSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, r, bad.ID); j.State != JobFailed || !strings.Contains(j.Error, "panicked") {
		t.Fatalf("panicking job = %+v, want failed with panic message", j)
	}
	if j := waitTerminal(t, r, good.ID); j.State != JobDone {
		t.Fatalf("job after the panic = %+v, want done", j)
	}
}

// The per-job timeout must flow into the executor's context and fail
// the job; a timeout is not transient, so there is exactly one attempt.
func TestRunnerTimeoutCancelsExec(t *testing.T) {
	r := newTestRunner(t, RunnerConfig{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Exec: func(ctx context.Context, _ Spec) (*Result, error) {
			<-ctx.Done() // simulate RunCtx noticing the cancel mid-tick-loop
			return nil, fmt.Errorf("run cancelled: %w", ctx.Err())
		},
	})
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, r, job.ID)
	if j.State != JobFailed || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with deadline error", j)
	}
	if j.Attempts != 1 {
		t.Fatalf("timeout retried: %d attempts, want 1", j.Attempts)
	}
}

// Transient failures retry with backoff until success, counting every
// attempt.
func TestRunnerTransientRetries(t *testing.T) {
	var calls atomic.Int64
	r := newTestRunner(t, RunnerConfig{
		Workers:    1,
		MaxRetries: 3,
		RetryBase:  2 * time.Millisecond,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			if calls.Add(1) <= 2 {
				return nil, fmt.Errorf("flaky backend: %w", ErrTransient)
			}
			return okExec(ctx, spec)
		},
	})
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, r, job.ID)
	if j.State != JobDone {
		t.Fatalf("job = %+v, want done after retries", j)
	}
	if j.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("attempts = %d (exec calls %d), want 3", j.Attempts, calls.Load())
	}
	if got := r.Metrics().Retries; got != 2 {
		t.Fatalf("metrics retries = %d, want 2", got)
	}
}

// A persistent transient failure runs exactly 1+MaxRetries attempts
// with exponential backoff between them, then fails.
func TestRunnerTransientExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	const base = 5 * time.Millisecond
	r := newTestRunner(t, RunnerConfig{
		Workers:    1,
		MaxRetries: 2,
		RetryBase:  base,
		Exec: func(context.Context, Spec) (*Result, error) {
			calls.Add(1)
			return nil, fmt.Errorf("still down: %w", ErrTransient)
		},
	})
	start := time.Now()
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, r, job.ID)
	elapsed := time.Since(start)
	if j.State != JobFailed || !strings.Contains(j.Error, "still down") {
		t.Fatalf("job = %+v, want failed with the exec error", j)
	}
	if j.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("attempts = %d (exec calls %d), want 3", j.Attempts, calls.Load())
	}
	// Backoffs before attempts 2 and 3 are at least base and 2*base.
	if min := 3 * base; elapsed < min {
		t.Fatalf("retries completed in %v, want >= %v of backoff", elapsed, min)
	}
}

// Deterministic (non-transient) failures must not burn retries.
func TestRunnerNonTransientFailsOnce(t *testing.T) {
	var calls atomic.Int64
	r := newTestRunner(t, RunnerConfig{
		Workers:    1,
		MaxRetries: 3,
		Exec: func(context.Context, Spec) (*Result, error) {
			calls.Add(1)
			return nil, errors.New("bad geometry")
		},
	})
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, r, job.ID)
	if j.State != JobFailed || j.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("job = %+v (exec calls %d), want one failed attempt", j, calls.Load())
	}
}

// Resubmitting a completed spec must be served from the store without
// re-executing.
func TestRunnerCacheHitOnResubmit(t *testing.T) {
	var calls atomic.Int64
	r := newTestRunner(t, RunnerConfig{
		Workers: 1,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			calls.Add(1)
			return okExec(ctx, spec)
		},
	})
	first, err := r.Submit(wlSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, r, first.ID); j.State != JobDone || j.Cached {
		t.Fatalf("cold job = %+v, want an uncached run", j)
	}
	// Same simulation point, different worker count: same key.
	spec := wlSpec(3)
	spec.Workers = 8
	second, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != JobDone {
		t.Fatalf("resubmit = %+v, want an immediate cache hit", second)
	}
	if calls.Load() != 1 {
		t.Fatalf("exec ran %d times, want 1", calls.Load())
	}
	m := r.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache metrics = %d/%d, want 1 hit / 1 miss", m.CacheHits, m.CacheMisses)
	}
}

// A full queue rejects new work instead of blocking the submitter.
func TestRunnerQueueFull(t *testing.T) {
	started := make(chan struct{}, 8) // buffered: later jobs signal nobody
	release := make(chan struct{})
	r := newTestRunner(t, RunnerConfig{
		Workers:    1,
		QueueDepth: 1,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return okExec(ctx, spec)
		},
	})
	defer close(release)
	if _, err := r.Submit(wlSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now busy with job 1
	if _, err := r.Submit(wlSpec(2)); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := r.Submit(wlSpec(3)); !errors.Is(err, errQueueFull) {
		t.Fatalf("third submit = %v, want queue-full", err)
	}
}

// Graceful shutdown finishes queued and in-flight jobs; submissions
// after shutdown are rejected.
func TestRunnerShutdownDrains(t *testing.T) {
	r := newTestRunner(t, RunnerConfig{Workers: 2, Exec: okExec})
	var ids []string
	for w := 1; w <= 4; w++ {
		j, err := r.Submit(wlSpec(w))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, _ := r.Job(id)
		if j.State != JobDone {
			t.Fatalf("after drain, job %s = %+v, want done", id, j)
		}
	}
	if _, err := r.Submit(wlSpec(5)); !errors.Is(err, errClosed) {
		t.Fatalf("submit after shutdown = %v, want closed", err)
	}
}

// When the drain deadline expires, in-flight jobs are cancelled through
// their contexts rather than held forever.
func TestRunnerShutdownAbortsOnDeadline(t *testing.T) {
	started := make(chan struct{})
	r := newTestRunner(t, RunnerConfig{
		Workers: 1,
		Exec: func(ctx context.Context, _ Spec) (*Result, error) {
			close(started)
			<-ctx.Done()
			return nil, fmt.Errorf("run cancelled: %w", ctx.Err())
		},
	})
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	j, _ := r.Job(job.ID)
	if j.State != JobFailed {
		t.Fatalf("aborted job = %+v, want failed", j)
	}
}

func BenchmarkRunnerCached(b *testing.B) {
	st, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(st, RunnerConfig{Workers: 1, Exec: okExec})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Shutdown(ctx) //nolint:errcheck
	}()
	spec := wlSpec(1)
	if _, err := st.Put(spec.Key(), &Result{Spec: spec.Canonical()}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := r.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !j.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// A submit racing a shutdown is refused with errClosed; it must never
// reach the closed queue (that panicked the HTTP handler of a daemon
// killed mid-sweep).
func TestSubmitRacingShutdownIsRefused(t *testing.T) {
	for round := 0; round < 30; round++ {
		r := newTestRunner(t, RunnerConfig{Workers: 1, Exec: okExec})
		const submitters = 4
		started := make(chan struct{}, submitters)
		refused := make(chan error, submitters)
		for g := 0; g < submitters; g++ {
			go func(g int) {
				for mbps := 1000 + g; ; mbps += submitters { // distinct keys: every submit takes the queue path
					spec := Spec{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: mbps}
					_, err := r.Submit(spec)
					if err != nil && !errors.Is(err, errQueueFull) {
						refused <- err
						return
					}
					if mbps < 1000+submitters {
						started <- struct{}{}
					}
				}
			}(g)
		}
		for g := 0; g < submitters; g++ {
			<-started
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r.Shutdown(ctx) //nolint:errcheck // forced: the abort is the point
		for g := 0; g < submitters; g++ {
			if err := <-refused; !errors.Is(err, errClosed) {
				t.Fatalf("submit during shutdown = %v, want %v", err, errClosed)
			}
		}
	}
}

// The job table keeps every pending job but only the last KeepFinished
// finished ones: the oldest finished ids become unknown, like any id
// the runner never issued, while a job held running is never dropped.
func TestRunnerForgetsOldestFinishedJobs(t *testing.T) {
	held := wlSpec(1)
	running := make(chan struct{})
	release := make(chan struct{})
	r := newTestRunner(t, RunnerConfig{
		Workers:    2,
		QueueDepth: 3 * KeepFinished,
		Exec: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec == held {
				close(running)
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return okExec(ctx, spec)
		},
	})
	heldJob, err := r.Submit(held)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	ids := make([]string, 3*KeepFinished)
	for i := range ids {
		j, err := r.Submit(Spec{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: 1 + i})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	waitTerminal(t, r, ids[len(ids)-1]) // one free worker runs them in order

	finished := 0
	for _, j := range r.Jobs() {
		if j.Terminal() {
			finished++
		} else if j.ID != heldJob.ID {
			t.Fatalf("pending job %s besides the held one", j.ID)
		}
	}
	if finished != KeepFinished {
		t.Fatalf("Jobs() lists %d finished jobs, want %d", finished, KeepFinished)
	}
	for i, id := range ids {
		if _, ok := r.Job(id); ok != (i >= len(ids)-KeepFinished) {
			t.Fatalf("job %d of %d (%s): found = %v", i, len(ids), id, ok)
		}
	}
	if j, ok := r.Job(heldJob.ID); !ok || j.State != JobRunning {
		t.Fatalf("held job = %+v (found %v), want it kept running", j, ok)
	}

	close(release)
	if j := waitTerminal(t, r, heldJob.ID); j.State != JobDone {
		t.Fatalf("held job = %+v, want done", j)
	}
	if n := len(r.Jobs()); n != KeepFinished {
		t.Fatalf("after the held job finished, Jobs() lists %d, want %d", n, KeepFinished)
	}
	if _, ok := r.Job(ids[len(ids)-KeepFinished]); ok {
		t.Fatal("the held job's completion did not push out the oldest finished job")
	}
}
