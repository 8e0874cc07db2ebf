package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"emerald/internal/guard"
	"emerald/internal/telemetry"
)

// ErrTransient marks a failure worth retrying. The built-in executor's
// failures are deterministic (a spec that times out once times out
// again), so only errors wrapped with this sentinel — e.g. from a
// future remote/distributed executor — trigger the retry path.
var ErrTransient = errors.New("transient failure")

// errQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 503.
var errQueueFull = errors.New("sweep: job queue full")

// errClosed is returned by Submit after Shutdown has begun.
var errClosed = errors.New("sweep: runner shutting down")

// errNoSuchJob is returned by Cancel for an unknown job id.
var errNoSuchJob = errors.New("sweep: no such job")

// errNotCancelable is returned by Cancel when the job has already
// started or finished — only queued jobs can be canceled.
var errNotCancelable = errors.New("sweep: job is not queued")

// errNotRunning is returned by Diag when the job exists but is not
// currently executing — there is no live simulation to snapshot.
var errNotRunning = errors.New("sweep: job is not running")

// KeepFinished is how many terminal jobs a Runner (and a fleet.Client)
// keeps for status queries. Pending jobs are always kept; past this
// many finished ones the oldest is forgotten, so GET /jobs/{id} answers
// 404 for it like for any unknown id. Pollers are safe: RunFigures and
// fleet.Client poll only jobs that were pending at submit, every 100 ms
// by default, and such a job is forgotten only once it has finished and
// KeepFinished more jobs have finished on the same runner after it.
const KeepFinished = 1024

// JobState is a job's lifecycle stage.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is a point-in-time snapshot of one submitted job, as returned by
// Submit/Job and serialized over the HTTP API.
type Job struct {
	ID    string   `json:"id"`
	Spec  Spec     `json:"spec"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Cached reports the result came from the content-addressed store
	// without running a simulation.
	Cached   bool   `json:"cached"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Recovered marks a job requeued from the journal after a crash.
	Recovered bool `json:"recovered,omitempty"`
	// Steals counts how many fleet peers pulled this job's spec while it
	// sat in the queue (see StealQueued). The job itself stays queued —
	// when the thief's replicated result lands first, the local worker
	// completes it as a cache hit instead of re-executing.
	Steals int `json:"steals,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// Progress is the live telemetry snapshot, present only while the
	// job is running (and after its simulation published at least one
	// stride poll). Terminal and queued snapshots never carry one — in
	// particular, a canceled job reports no progress.
	Progress *telemetry.Progress `json:"progress,omitempty"`
}

// Terminal reports whether the job has finished (done, failed or
// canceled).
func (j Job) Terminal() bool {
	return j.State == JobDone || j.State == JobFailed || j.State == JobCanceled
}

// job is the runner's mutable record behind Job snapshots.
type job struct {
	mu    sync.Mutex
	j     Job
	probe *telemetry.Probe // non-nil only while a worker is executing the job
}

func (jb *job) snapshot() Job {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	j := jb.j
	// Attach live progress to running snapshots only: the probe
	// outlives brief races with state transitions, and gating on the
	// state here guarantees canceled/terminal jobs never report it.
	if j.State == JobRunning && jb.probe != nil {
		if pr, ok := jb.probe.Progress(); ok {
			j.Progress = &pr
		}
	}
	return j
}

// setProbe installs (or clears, with nil) the job's live telemetry
// probe.
func (jb *job) setProbe(p *telemetry.Probe) {
	jb.mu.Lock()
	jb.probe = p
	jb.mu.Unlock()
}

func (jb *job) update(f func(*Job)) {
	jb.mu.Lock()
	f(&jb.j)
	jb.mu.Unlock()
}

// Exec runs one job's simulation. Implementations must honor ctx — the
// runner threads its per-job timeout through here into the simulation
// tick loops.
type Exec func(ctx context.Context, spec Spec) (*Result, error)

// RunnerConfig parameterizes the runner. Zero fields take defaults.
type RunnerConfig struct {
	// Workers is the number of concurrently executing jobs (default 2).
	Workers int
	// QueueDepth bounds the queued-job backlog (default 1024).
	QueueDepth int
	// JobTimeout bounds one execution attempt (default 15 min).
	JobTimeout time.Duration
	// Retry is how a transient failure re-executes (default 2 retries,
	// backoff 100ms up to 5s; a negative Attempts disables retrying).
	Retry Retry
	// Exec overrides the executor (default Executor with the Watchdog
	// and Guard fields below; tests inject failures here).
	Exec Exec
	// Watchdog is the forward-progress window in cycles threaded into
	// the default executor's simulations (0 = off; ignored when Exec is
	// set).
	Watchdog uint64
	// Guard attaches the microarchitectural invariant checker in the
	// default executor's simulations (ignored when Exec is set).
	Guard bool
	// Journal, when non-nil, records job lifecycle transitions to the
	// durable write-ahead log so a crashed daemon can requeue
	// incomplete jobs on restart.
	Journal *Journal
	// OnStored, when non-nil, is invoked after a locally-executed job's
	// result lands in the store, with the canonical payload bytes. The
	// fleet layer hangs result replication off this hook. Called from
	// the worker goroutine; implementations must not block long.
	OnStored func(key string, payload []byte)
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	c.Retry = c.Retry.withDefaults(Retry{Attempts: 2, Base: 100 * time.Millisecond, Max: 5 * time.Second})
	if c.Exec == nil {
		c.Exec = Executor(c.Watchdog, c.Guard)
	}
	return c
}

// Runner owns the job queue, the worker pool and the job registry. All
// methods are safe for concurrent use.
type Runner struct {
	cfg     RunnerConfig
	store   *Store
	met     *metrics
	journal *Journal // nil when journaling is off (all methods nil-safe)

	baseCtx context.Context // cancelled only on forced shutdown
	abort   context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // ids of terminal jobs still in jobs, oldest first
	nextID   int
	closed   bool
}

// NewRunner builds a runner over the given store and starts its
// workers.
func NewRunner(store *Store, cfg RunnerConfig) *Runner {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		cfg:     cfg,
		store:   store,
		met:     &metrics{},
		journal: cfg.Journal,
		baseCtx: ctx,
		abort:   cancel,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Submit validates and registers a job. A content-addressed cache hit
// completes the job immediately (Cached=true) without queueing; a miss
// enqueues it for the worker pool.
func (r *Runner) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	key := spec.Key()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Job{}, errClosed
	}
	r.nextID++
	jb := &job{j: Job{
		ID:          fmt.Sprintf("j%d", r.nextID),
		Spec:        spec,
		Key:         key,
		State:       JobQueued,
		SubmittedAt: time.Now(),
	}}
	r.jobs[jb.j.ID] = jb
	r.mu.Unlock()

	if _, ok, err := r.store.Get(key); err == nil && ok {
		r.met.cacheHit()
		r.finish(jb, JobQueued, cachedDone)
		return jb.snapshot(), nil
	}
	r.met.cacheMissed()

	// Journal the accept (fsynced) before the job becomes runnable: once
	// Submit acknowledges, the job survives kill -9.
	if err := r.journal.accept(jb.j.ID, key, spec); err != nil {
		r.finish(jb, JobQueued, failedWith(err.Error()))
		return jb.snapshot(), err
	}
	// Shutdown closes the queue under r.mu; the send holds it too, so a
	// submit racing a shutdown is refused instead of panicking on a
	// closed channel.
	r.mu.Lock()
	err := errClosed
	if !r.closed {
		select {
		case r.queue <- jb:
			err = nil
		default:
			err = errQueueFull
		}
	}
	r.mu.Unlock()
	if err != nil {
		r.finish(jb, JobQueued, failedWith(err.Error()))
		r.journal.Fail(jb.j.ID, err.Error())
		return jb.snapshot(), err
	}
	r.met.enqueued()
	return jb.snapshot(), nil
}

// Cancel moves a still-queued job to the terminal canceled state; its
// queue slot is discarded when a worker reaches it. Returns
// errNoSuchJob for an unknown id and errNotCancelable (with the
// current snapshot) once the job is running or terminal.
func (r *Runner) Cancel(id string) (Job, error) {
	r.mu.Lock()
	jb, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return Job{}, errNoSuchJob
	}
	if !r.finish(jb, JobQueued, func(j *Job) { j.State = JobCanceled }) {
		return jb.snapshot(), errNotCancelable
	}
	r.met.canceled()
	r.journal.Cancel(id)
	return jb.snapshot(), nil
}

// Recover re-registers jobs the journal reports as incomplete from a
// previous process, preserving their original IDs. A job whose result
// landed in the store before the crash completes as a cache hit; the
// rest are requeued — deterministic execution makes the rerun
// equivalent to a resume. Call once at startup, before serving
// submissions.
func (r *Runner) Recover(pending []PendingJob) (requeued, cached int) {
	for _, p := range pending {
		jb := &job{j: Job{
			ID:          p.ID,
			Spec:        p.Spec,
			Key:         p.Spec.Key(),
			State:       JobQueued,
			Recovered:   true,
			SubmittedAt: time.Now(),
		}}
		r.mu.Lock()
		if n := idNum(p.ID); n > r.nextID {
			r.nextID = n // new submissions must not collide with recovered IDs
		}
		r.jobs[p.ID] = jb
		r.mu.Unlock()

		if _, ok, err := r.store.Get(jb.j.Key); err == nil && ok {
			r.met.cacheHit()
			r.finish(jb, JobQueued, cachedDone)
			r.journal.Done(p.ID)
			cached++
			continue
		}
		r.met.cacheMissed()
		select {
		case r.queue <- jb:
			r.met.enqueued()
			requeued++
		default:
			r.finish(jb, JobQueued, failedWith(errQueueFull.Error()))
			r.journal.Fail(p.ID, errQueueFull.Error())
		}
	}
	return requeued, cached
}

// idNum extracts the numeric part of a "j<n>" job id (0 if malformed).
func idNum(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// StealQueued hands out up to max queued job specs to a fleet peer
// (POST /fleet/steal). The steal is non-destructive: the jobs stay
// queued here, each marked stolen at most once, and the local worker
// that eventually dequeues one either finds the thief's replicated
// result already in the store (a cache hit) or re-executes — which is
// byte-identical, so the race is harmless and no job can ever be lost
// to a dead thief. Newest jobs are handed out first: the local workers
// drain the queue oldest-first, so stealing from the far end minimizes
// duplicate execution.
func (r *Runner) StealQueued(max int) []Spec {
	if max <= 0 {
		return nil
	}
	r.mu.Lock()
	jbs := make([]*job, 0, len(r.jobs))
	for _, jb := range r.jobs {
		jbs = append(jbs, jb)
	}
	r.mu.Unlock()
	sort.Slice(jbs, func(i, j int) bool { // newest first
		return idNum(jbs[i].j.ID) > idNum(jbs[j].j.ID)
	})
	var out []Spec
	for _, jb := range jbs {
		if len(out) >= max {
			break
		}
		jb.mu.Lock()
		if jb.j.State == JobQueued && jb.j.Steals == 0 {
			jb.j.Steals++
			out = append(out, jb.j.Spec)
		}
		jb.mu.Unlock()
	}
	if len(out) > 0 {
		r.met.stolen(len(out))
	}
	return out
}

// Draining reports whether Shutdown has begun; the HTTP readiness
// endpoint surfaces this as 503 "draining".
func (r *Runner) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// QueueFull reports whether a submission would be rejected right now.
func (r *Runner) QueueFull() bool { return len(r.queue) == cap(r.queue) }

// Job returns a snapshot of the job with the given id.
func (r *Runner) Job(id string) (Job, bool) {
	r.mu.Lock()
	jb, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return jb.snapshot(), true
}

// Jobs returns snapshots of every registered job (unordered).
func (r *Runner) Jobs() []Job {
	r.mu.Lock()
	out := make([]Job, 0, len(r.jobs))
	for _, jb := range r.jobs {
		out = append(out, jb.snapshot())
	}
	r.mu.Unlock()
	return out
}

// Metrics returns the current service metrics.
func (r *Runner) Metrics() MetricsSnapshot { return r.met.snapshot() }

// WritePrometheus renders the service metrics in prometheus text
// exposition format (the content-negotiated alternative to the JSON
// MetricsSnapshot).
func (r *Runner) WritePrometheus(w io.Writer) error { return r.met.writeProm(w) }

// Diag captures a diagnostic bundle from a running job's live
// simulation: the request is served by the simulation goroutine at its
// next stride poll (microseconds of wall time), so the snapshot is
// taken at a quiescent point without stopping the run. Returns
// errNoSuchJob for unknown ids and errNotRunning when the job is
// queued, terminal, or finished while the request was in flight.
func (r *Runner) Diag(ctx context.Context, id string) (*guard.Diag, error) {
	r.mu.Lock()
	jb, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return nil, errNoSuchJob
	}
	jb.mu.Lock()
	probe, state := jb.probe, jb.j.State
	jb.mu.Unlock()
	if state != JobRunning || probe == nil {
		return nil, errNotRunning
	}
	d, err := probe.RequestDiag(ctx)
	if errors.Is(err, telemetry.ErrFinished) {
		return nil, errNotRunning
	}
	return d, err
}

// Shutdown stops accepting submissions and drains the queue: workers
// finish every queued and in-flight job, then exit. If ctx expires
// first, in-flight jobs are cancelled through their contexts and the
// drain completes with ctx's error.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		r.abort() // cancel in-flight simulations mid-tick-loop
		<-drained
		r.drainCanceled()
		return ctx.Err()
	}
}

// drainCanceled empties the closed queue after a forced shutdown,
// marking every job the workers never reached as canceled so nothing
// is left queued forever. (The journal keeps their accept records
// uncanceled on purpose: an abandoned job is exactly what restart
// recovery should requeue.)
func (r *Runner) drainCanceled() {
	for jb := range r.queue {
		r.abandon(jb)
	}
}

// abandon marks a dequeued-but-never-run job as canceled (forced
// shutdown reached it first).
func (r *Runner) abandon(jb *job) {
	abandoned := r.finish(jb, JobQueued, func(j *Job) {
		j.State = JobCanceled
		j.Error = "abandoned by forced shutdown"
	})
	if abandoned {
		r.met.canceled()
	}
	r.met.dropped()
}

// worker drains the queue until it is closed and empty (graceful
// shutdown) or the base context is aborted (forced shutdown).
func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.baseCtx.Done():
			return
		case jb, ok := <-r.queue:
			if !ok {
				return
			}
			if r.baseCtx.Err() != nil {
				// Forced shutdown raced the dequeue: don't start new
				// work, hand the slot to the abandonment path.
				r.abandon(jb)
				return
			}
			r.runJob(jb)
		}
	}
}

// runJob executes one job with cache re-check, panic isolation,
// per-attempt timeout and bounded retry. A job canceled while it sat
// in the queue is discarded here without running.
func (r *Runner) runJob(jb *job) {
	start := time.Now()
	claimed := false
	jb.update(func(j *Job) {
		if j.State == JobQueued {
			j.State = JobRunning
			j.StartedAt = start
			claimed = true
		}
	})
	if !claimed { // canceled between enqueue and dequeue
		r.met.dropped()
		return
	}
	r.met.started()
	snap := jb.snapshot()
	key := snap.Key
	r.journal.Start(snap.ID)

	// Arm the job's live telemetry: the executor threads this probe
	// through its context into the simulation run loops, which publish
	// progress and serve diag requests at every stride poll. Finish on
	// the way out fails pending/future diag requests fast; the probe
	// stays installed so nothing races, and snapshot()'s running-state
	// gate keeps progress off terminal snapshots.
	probe := telemetry.NewProbe()
	jb.setProbe(probe)
	defer probe.Finish()

	// A concurrent job with the same key may have completed while this
	// one sat in the queue; serve it from the store instead of
	// recomputing.
	if _, ok, err := r.store.Get(key); err == nil && ok {
		r.finish(jb, JobRunning, cachedDone)
		r.journal.Done(snap.ID)
		r.met.finished(true, -1)
		return
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			r.met.retried()
			if err := r.cfg.Retry.Wait(r.baseCtx, attempt, ""); err != nil {
				lastErr = fmt.Errorf("sweep: retry abandoned: %w", err)
				break
			}
		}
		jb.update(func(j *Job) { j.Attempts++ })
		res, err := r.execOnce(jb.snapshot().Spec, probe)
		if err == nil {
			// Store first, journal second: a crash between the two
			// requeues the job, and the rerun completes as a cache hit.
			var payload []byte
			if payload, err = r.store.Put(key, res); err == nil {
				// Read back what landed on disk before declaring the job
				// done. A torn or bit-flipped write (real media trouble or
				// injected chaos) fails footer verification and reads as a
				// miss — treat it as a transient failure so the next
				// attempt rewrites the blob instead of the job finishing
				// with a result no reader can ever serve.
				if _, ok, verr := r.store.Get(key); verr != nil || !ok {
					err = fmt.Errorf("sweep: stored result %s failed read-back verification: %w", key, ErrTransient)
				} else {
					r.finish(jb, JobRunning, func(j *Job) { j.State = JobDone })
					r.journal.Done(snap.ID)
					r.met.finished(true, float64(time.Since(start))/float64(time.Millisecond))
					if r.cfg.OnStored != nil {
						r.cfg.OnStored(key, payload)
					}
					return
				}
			}
		}
		lastErr = err
		if !errors.Is(err, ErrTransient) || r.baseCtx.Err() != nil || attempt >= r.cfg.Retry.Attempts {
			break
		}
	}
	r.finish(jb, JobRunning, failedWith(lastErr.Error()))
	if r.baseCtx.Err() == nil {
		r.journal.Fail(snap.ID, lastErr.Error())
	}
	// Else a forced shutdown aborted the attempt mid-flight: no terminal
	// journal record, so the accept stays pending and restart recovery
	// requeues the job — the crash analog of "the process died here".
	r.met.finished(false, float64(time.Since(start))/float64(time.Millisecond))
}

// finish is every job's one terminal transition: if jb is still in
// state from, it applies to (which sets the terminal state), stamps
// FinishedAt and appends the id to the finished FIFO, forgetting the
// oldest finished job once more than KeepFinished are held. A job that
// is not terminal is never forgotten. Reports whether the transition
// happened.
func (r *Runner) finish(jb *job, from JobState, to func(*Job)) bool {
	done := false
	jb.update(func(j *Job) {
		if j.State == from {
			to(j)
			j.FinishedAt = time.Now()
			done = true
		}
	})
	if !done {
		return false
	}
	r.mu.Lock()
	r.finished = append(r.finished, jb.j.ID)
	if len(r.finished) > KeepFinished {
		delete(r.jobs, r.finished[0])
		r.finished = r.finished[1:]
	}
	r.mu.Unlock()
	return true
}

// cachedDone and failedWith are finish's common terminal states.
func cachedDone(j *Job) { j.State, j.Cached = JobDone, true }

func failedWith(msg string) func(*Job) {
	return func(j *Job) { j.State, j.Error = JobFailed, msg }
}

// execOnce runs one attempt under the per-job timeout, converting a
// panic in the simulator into a job-level error so a poisoned job
// cannot take down the daemon or its worker. The job's telemetry probe
// rides the context so the Exec signature (and every test that injects
// one) stays unchanged; the built-in executor recovers it with
// telemetry.FromContext.
func (r *Runner) execOnce(spec Spec, probe *telemetry.Probe) (res *Result, err error) {
	ctx, cancel := context.WithTimeout(r.baseCtx, r.cfg.JobTimeout)
	defer cancel()
	if probe != nil {
		ctx = telemetry.NewContext(ctx, probe)
	}
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 4<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("sweep: job panicked: %v\n%s", p, buf)
		}
	}()
	return r.cfg.Exec(ctx, spec)
}
