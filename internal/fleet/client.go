package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emerald/internal/sweep"
)

// Client fans a sweep across a fleet of emeraldd nodes. It implements
// sweep.Service, so sweep.RunFigures drives it exactly like a
// single-node Client — same submission order, same dedup, same
// aggregation — which is what keeps fleet tables byte-identical to the
// single-node and sequential-CLI paths.
//
// Placement mirrors the nodes' own ring: a spec goes to the first
// alive owner of its key, so submissions land where the result blob
// will live and warm-cache sweeps hit without any cross-node fetch.
// Failover is the ring walk: a node that stops answering is marked
// down and its pending jobs are resubmitted to the next alive owner —
// sound because re-execution is byte-identical, so re-placing a job is
// indistinguishable from having placed it there first.
type Client struct {
	ring  *Ring
	nodes map[string]*sweep.Client

	// DownFor is how long a failed node is skipped before the client
	// tries it again (default 15s).
	DownFor time.Duration

	// Hedge is the tail-latency hedging policy (see HedgePolicy).
	Hedge HedgePolicy

	mu      sync.Mutex
	down    map[string]time.Time // node -> when it was marked down
	tracked map[string]*placed   // synthetic job id -> placements
	nextID  int

	latMu sync.Mutex
	lats  []time.Duration // completed-job wall times (non-cached), ring buffer
	latAt int

	hedgeFired atomic.Int64
	hedgeWon   atomic.Int64
}

// HedgePolicy controls hedged requests: once a job has been pending
// longer than max(Min, hedgeFactor × p95 of observed completions), the
// client submits a second copy to the next alive ring owner and takes
// whichever placement reaches a terminal state first. Determinism
// makes this free of coordination: both executions produce
// byte-identical results, so "first wins" needs no reconciliation.
type HedgePolicy struct {
	// Disabled turns hedging off entirely.
	Disabled bool
	// Min is the floor before any hedge fires (default 2s) — also the
	// deadline used before MinSamples completions have been observed.
	Min time.Duration
	// MinSamples is how many completions the latency tracker needs
	// before the percentile deadline is trusted (default 5).
	MinSamples int
}

// hedgeFactor multiplies the observed p95 completion latency into the
// hedge deadline.
const hedgeFactor = 2

// HedgeStats reports how many hedges fired and how many completed
// before the primary placement did.
type HedgeStats struct {
	Fired int64 `json:"fired"`
	Won   int64 `json:"won"`
}

// HedgeStats returns the client's hedging counters.
func (c *Client) HedgeStats() HedgeStats {
	return HedgeStats{Fired: c.hedgeFired.Load(), Won: c.hedgeWon.Load()}
}

// placed records where a synthetic job currently lives: a short list
// of live placements, all polled. It holds one until a hedge adds a
// sibling (at most once per job), and is refilled when it runs empty.
type placed struct {
	spec        sweep.Spec
	key         string
	submittedAt time.Time
	live        []placement
	hedged      bool // a hedge was attempted
	failovers   int  // placements dropped because their execution failed
}

// placement is one copy of a job on one node.
type placement struct {
	node, id string
	hedge    bool // opened by the hedge, not by Submit or a re-placement
}

// NewClient builds a fleet client over the same peer list the nodes
// were started with. httpc overrides the transport (nil = default).
func NewClient(peers []string, httpc *http.Client) (*Client, error) {
	ring, err := NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ring:    ring,
		nodes:   make(map[string]*sweep.Client, len(peers)),
		DownFor: 15 * time.Second,
		down:    make(map[string]time.Time),
		tracked: make(map[string]*placed),
	}
	for _, p := range ring.Nodes() {
		// Per-node transport retries stay small: the fleet client's own
		// failover (next owner on the ring) is the real recovery path.
		c.nodes[p] = &sweep.Client{
			Base: p, HTTP: httpc,
			Retries: 1, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond,
		}
	}
	return c, nil
}

// Nodes returns the fleet membership (sorted).
func (c *Client) Nodes() []string { return c.ring.Nodes() }

func (c *Client) alive(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	since, isDown := c.down[node]
	if !isDown {
		return true
	}
	if time.Since(since) > c.DownFor {
		delete(c.down, node) // give it another chance
		return true
	}
	return false
}

func (c *Client) markDown(node string) {
	c.mu.Lock()
	if _, already := c.down[node]; !already {
		c.down[node] = time.Now()
	}
	c.mu.Unlock()
}

// place submits spec to the first owner that accepts it, walking the
// ring past down and failing nodes and skipping exclude (nodes that
// just dropped the job, or already hold a copy). Returns the accepting
// node and its job snapshot.
func (c *Client) place(ctx context.Context, spec sweep.Spec, exclude ...string) (string, sweep.Job, error) {
	key := spec.Key()
	var lastErr error
	tried := 0
	for _, node := range c.ring.OwnersAlive(key, len(c.nodes), c.alive) {
		if contains(exclude, node) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return "", sweep.Job{}, err
		}
		tried++
		job, err := c.nodes[node].Submit(ctx, spec)
		if err == nil {
			return node, job, nil
		}
		lastErr = err
		c.markDown(node)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no node available for %s", spec)
	}
	return "", sweep.Job{}, fmt.Errorf("fleet: submit failed on all %d candidate node(s): %w", tried, lastErr)
}

// Submit places one spec on the fleet and returns its job snapshot
// under a fleet-scoped synthetic id (the underlying node's id is an
// implementation detail that changes on failover).
func (c *Client) Submit(ctx context.Context, spec sweep.Spec) (sweep.Job, error) {
	node, job, err := c.place(ctx, spec)
	if err != nil {
		return sweep.Job{}, err
	}
	c.mu.Lock()
	c.nextID++
	sid := fmt.Sprintf("f%d", c.nextID)
	c.tracked[sid] = &placed{
		spec: spec, key: spec.Key(), submittedAt: time.Now(),
		live: []placement{{node: node, id: job.ID}},
	}
	c.mu.Unlock()
	job.ID = sid
	return job, nil
}

// recordLatency feeds one completed (non-cached) job's wall time into
// the bounded latency window the hedge deadline derives from.
func (c *Client) recordLatency(d time.Duration) {
	const window = 256
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if len(c.lats) < window {
		c.lats = append(c.lats, d)
		return
	}
	c.lats[c.latAt%window] = d
	c.latAt++
}

// hedgeDeadline returns how long a job may stay pending before a hedge
// fires. Below MinSamples completions only the Min floor applies; with
// enough samples the deadline is max(Min, hedgeFactor × p95), so hedging
// targets the tail without duplicating median-latency work.
func (c *Client) hedgeDeadline() time.Duration {
	h := c.Hedge
	if h.Min <= 0 {
		h.Min = 2 * time.Second
	}
	if h.MinSamples <= 0 {
		h.MinSamples = 5
	}
	c.latMu.Lock()
	n := len(c.lats)
	sorted := append([]time.Duration(nil), c.lats...)
	c.latMu.Unlock()
	if n < h.MinSamples {
		return h.Min
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[(len(sorted)*95)/100]
	return max(h.Min, hedgeFactor*p95)
}

func (c *Client) placement(sid string) (*placed, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.tracked[sid]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown job id %q", sid)
	}
	return p, nil
}

// WaitAll polls every listed job to a terminal state, invoking onDone
// per completion. Every live placement of a job is polled and the
// first terminal one wins (results are byte-identical by construction).
// A placement is dropped when its node stops answering (the node is
// marked down), when it comes back canceled (its node was
// force-drained), or when it failed and the failover budget — one try
// per other node — is not spent. A job left with no placement is
// re-placed on the next alive owner; a job with one placement pending
// past the hedge deadline gains a sibling. Zero jobs are lost: every
// spec either reaches a terminal state on some node or the wait fails
// loudly once no node will take it.
func (c *Client) WaitAll(ctx context.Context, ids []string, poll time.Duration, onDone func(sweep.Job)) (map[string]sweep.Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	final := make(map[string]sweep.Job, len(ids))
	pending := append([]string(nil), ids...)
	for len(pending) > 0 {
		next := pending[:0]
		for _, sid := range pending {
			p, err := c.placement(sid)
			if err != nil {
				return nil, err
			}
			job, done, err := c.pollPlaced(ctx, p)
			if err != nil && ctx.Err() != nil {
				return nil, fmt.Errorf("fleet: %d job(s) still pending: %w", len(pending), ctx.Err())
			}
			if err != nil {
				return nil, fmt.Errorf("fleet: relocating job %s: %w", sid, err)
			}
			if !done {
				c.maybeHedge(ctx, p)
				next = append(next, sid)
				continue
			}
			if !job.Cached {
				c.recordLatency(time.Since(p.submittedAt))
			}
			job.ID = sid
			final[sid] = job
			if onDone != nil {
				onDone(job)
			}
		}
		pending = next
		if len(pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: %d job(s) still pending: %w", len(pending), ctx.Err())
		case <-time.After(poll):
		}
	}
	return final, nil
}

// pollPlaced polls every live placement of p once, drops the ones that
// are not coming back, and re-places the job if none is left. It
// returns the winning snapshot once any placement is terminal.
func (c *Client) pollPlaced(ctx context.Context, p *placed) (sweep.Job, bool, error) {
	// Placements are never edited in place (a hedge appends, a drop
	// swaps in a new list), so the list read here stays valid unlocked.
	c.mu.Lock()
	live, failovers := p.live, p.failovers
	c.mu.Unlock()

	var dropped []string
	for _, pl := range live {
		job, err := c.nodes[pl.node].Job(ctx, pl.id)
		switch {
		case err != nil && ctx.Err() != nil:
			return sweep.Job{}, false, err
		case err != nil:
			// The node is unreachable (or forgot the job after a restart).
			c.markDown(pl.node)
		case job.State == sweep.JobCanceled:
			// A forced drain on the node abandoned it; it is not coming
			// back there.
		case job.State == sweep.JobFailed && failovers < len(c.nodes)-1:
			// The node exhausted its local retries — a sick disk or
			// injected store faults, not necessarily the spec's fate.
			// Determinism means any other node computes the identical
			// result, so drop the placement instead of failing the sweep; a
			// spec that genuinely cannot run fails on every node and the
			// failover budget runs out.
			failovers++
		case job.Terminal():
			if pl.hedge {
				c.hedgeWon.Add(1)
			}
			return job, true, nil
		default:
			continue // still pending there
		}
		dropped = append(dropped, pl.node)
	}
	if len(dropped) == 0 {
		return sweep.Job{}, false, nil
	}
	var kept []placement
	for _, pl := range live {
		if !contains(dropped, pl.node) { // a job's placements sit on distinct nodes
			kept = append(kept, pl)
		}
	}
	var first sweep.Job
	if len(kept) == 0 {
		node, job, err := c.place(ctx, p.spec, dropped...)
		if err != nil {
			return sweep.Job{}, false, err
		}
		kept, first = []placement{{node: node, id: job.ID}}, job
	}
	c.mu.Lock()
	p.live, p.failovers = kept, failovers
	c.mu.Unlock()
	// A re-placement may already be terminal (cache hit on arrival).
	return first, first.Terminal() && first.State != sweep.JobCanceled, nil
}

// maybeHedge opens a second placement for a job whose single placement
// is pending past the hedge deadline. At most one hedge per job: the
// point is cutting the tail, not flooding the fleet with duplicates
// (which would be correct — executions are byte-identical — but
// wasteful).
func (c *Client) maybeHedge(ctx context.Context, p *placed) {
	if c.Hedge.Disabled {
		return
	}
	c.mu.Lock()
	candidate := !p.hedged && len(p.live) == 1
	first := p.live[0].node
	c.mu.Unlock()
	if !candidate || time.Since(p.submittedAt) < c.hedgeDeadline() {
		return
	}
	c.mu.Lock()
	p.hedged = true // even if placement fails: one attempt per job
	c.mu.Unlock()
	node, job, err := c.place(ctx, p.spec, first)
	if err != nil {
		return
	}
	c.mu.Lock()
	p.live = append(p.live, placement{node: node, id: job.ID, hedge: true})
	c.mu.Unlock()
	c.hedgeFired.Add(1)
}

// resultWait bounds how long Result keeps re-walking the fleet for a
// blob no node currently serves. A result that a node finished just
// before crashing is briefly unavailable until the node restarts,
// anti-entropy repairs the replica, or a leave handoff delivers it —
// fetches ride out that window rather than fail a whole sweep on a
// heal in progress.
const resultWait = 8 * time.Second

// Result fetches the stored result for key from its owners (alive
// first), falling back across the ring until a copy answers.
func (c *Client) Result(ctx context.Context, key string) (*sweep.Result, error) {
	deadline := time.Now().Add(resultWait)
	var lastErr error
	for attempt := 0; ; attempt++ {
		for _, node := range c.ring.OwnersAlive(key, len(c.nodes), c.alive) {
			res, err := c.nodes[node].Result(ctx, key)
			if err == nil {
				return res, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, lastErr
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet: result %s unavailable on every node: %w", key[:12], lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// Jobs returns the latest snapshot of every job this client placed
// (synthetic ids), polling each node once. Nodes that do not answer
// contribute their jobs' last-known placements as-is — the progress
// display degrades instead of failing.
func (c *Client) Jobs(ctx context.Context) ([]sweep.Job, error) {
	c.mu.Lock()
	byNode := make(map[string]map[string]string) // node -> realID -> sid
	for sid, p := range c.tracked {
		pl := p.live[0] // placements are never left empty
		m, ok := byNode[pl.node]
		if !ok {
			m = make(map[string]string)
			byNode[pl.node] = m
		}
		m[pl.id] = sid
	}
	c.mu.Unlock()

	var out []sweep.Job
	for node, realToSid := range byNode {
		if !c.alive(node) {
			continue
		}
		jobs, err := c.nodes[node].Jobs(ctx)
		if err != nil {
			continue
		}
		for _, j := range jobs {
			if sid, ok := realToSid[j.ID]; ok {
				j.ID = sid
				out = append(out, j)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
