package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emerald/internal/sweep"
	"emerald/internal/telemetry"
)

// Config parameterizes one fleet member. Zero fields take defaults.
type Config struct {
	// Self is this node's advertised base URL (e.g.
	// "http://127.0.0.1:8401"); it must appear in Peers.
	Self string
	// Peers is the initial membership, Self included. Nodes started
	// with the same list agree on the ring immediately; membership can
	// then drift dynamically via join/leave, reconciled by the
	// epoch-versioned membership protocol (higher epoch wins,
	// propagated by explicit broadcast and piggybacked on every health
	// probe).
	Peers []string
	// Join, when set, is the base URL of an existing fleet member to
	// join through: the node starts as a fleet of one, POSTs
	// /fleet/join to the seed, and adopts the membership view it gets
	// back. Peers may be empty (it defaults to just Self).
	Join string
	// Replicas is how many ring owners hold each completed result blob
	// (default 2; when the fleet is smaller, every member holds a copy).
	Replicas int
	// ProbeFails is how many *consecutive* failed health probes it
	// takes to mark a peer down (default 3). One dropped packet must
	// not trigger ring failover; one successful probe recovers.
	ProbeFails int
	// ProbeInterval is the health-probe period (default 2s); one probe
	// is bounded by min(ProbeInterval, 2s).
	ProbeInterval time.Duration
	// StealInterval is how often an idle node tries to pull queued work
	// from its peers (default 500ms), stealBatch specs at a time.
	StealInterval time.Duration
	// AntiEntropyInterval is the period of the replica repair sweep
	// (default 30s).
	AntiEntropyInterval time.Duration
	// HTTP overrides the transport used for fleet-internal traffic.
	HTTP *http.Client
	// Logf sinks fleet lifecycle messages (default log.Printf).
	Logf func(format string, args ...any)
}

// stealBatch bounds one work-steal haul.
const stealBatch = 4

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, fmt.Errorf("fleet: config needs a Self address")
	}
	if len(c.Peers) == 0 {
		c.Peers = []string{c.Self}
	}
	if !contains(c.Peers, c.Self) {
		return c, fmt.Errorf("fleet: self %q is not in the peer list %v", c.Self, c.Peers)
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.ProbeFails <= 0 {
		c.ProbeFails = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 500 * time.Millisecond
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 30 * time.Second
	}
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c, nil
}

// Node is one fleet member: the glue between this process's
// sweep.Runner/Store and its peers. It implements sweep.FleetPlane, so
// the sweep server mounts its endpoints, gates readiness on it, and
// folds its gauges into the Prometheus scrape.
type Node struct {
	cfg   Config
	store *sweep.Store

	// runner is attached after construction (SetRunner) because the
	// runner's OnStored hook needs the node first.
	runner atomic.Pointer[sweep.Runner]

	// OnLeave, when set before Start, is invoked (once, on a background
	// goroutine) after a remote POST /fleet/leave finishes the handoff —
	// the embedding daemon uses it to trigger its graceful shutdown.
	OnLeave func()

	mu      sync.Mutex
	epoch   uint64                // membership version; strictly-higher wins
	members []string              // current membership, sorted, self included
	ring    *Ring                 // rebuilt on every membership change
	peers   map[string]*peerState // self excluded
	ready   bool
	joined  bool // Join handshake done (or not configured)
	leaving bool
	victims map[string]string // result key -> peer to replicate back to

	stolenIn       atomic.Int64 // specs pulled from peers
	replicasPushed atomic.Int64 // successful result pushes
	repairCorrupt  atomic.Int64 // corrupt local blobs healed from a peer
	repairPull     atomic.Int64 // owned-but-missing blobs pulled
	repairPush     atomic.Int64 // under-replicated blobs pushed
	handoffPushed  atomic.Int64 // blobs pushed to new owners on graceful leave
	reconciled     atomic.Int64 // journaled jobs completed via peer blobs at restart

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type peerState struct {
	alive   bool
	fails   int           // consecutive probe failures (debounce)
	rtt     time.Duration // of the last successful probe
	lastErr string
}

// New builds a fleet node over the given store. Call SetRunner once
// the runner exists (its OnStored hook should be the node's OnStored),
// then Start to launch the probe/steal/anti-entropy loops.
func New(cfg Config, store *sweep.Store) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	members := normalizeMembers(cfg.Peers)
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		members: members,
		ring:    ring,
		store:   store,
		peers:   make(map[string]*peerState),
		victims: make(map[string]string),
		joined:  cfg.Join == "",
		stop:    make(chan struct{}),
	}
	n.syncPeersLocked()
	if len(n.peers) == 0 && n.joined {
		n.ready = true // a fleet of one has nothing to probe
	}
	return n, nil
}

// normalizeMembers sorts and deduplicates a membership list, dropping
// empties and trailing slashes.
func normalizeMembers(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, m := range in {
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SetRunner attaches the job runner. Must be called before Start and
// before the HTTP surface goes live.
func (n *Node) SetRunner(r *sweep.Runner) { n.runner.Store(r) }

// Ring exposes the current placement ring (fleet clients and tests
// share it). The ring is immutable; membership changes swap in a new
// one.
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Members returns the current membership view (sorted, self included)
// and its epoch.
func (n *Node) Members() (uint64, []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, append([]string(nil), n.members...)
}

// Start launches the background loops: peer health probes (the first
// round at once), the work-steal loop, and the anti-entropy sweep.
// Close stops them. The steal and anti-entropy loops always run —
// membership is dynamic, so a fleet of one may grow peers later.
func (n *Node) Start() {
	n.wg.Add(3)
	go func() {
		n.probeTick()
		n.every(n.cfg.ProbeInterval, n.probeTick)
	}()
	go n.every(n.cfg.StealInterval, func() {
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.StealInterval*4+time.Second)
		defer cancel()
		n.StealOnce(ctx) //nolint:errcheck // best effort; next tick retries
	})
	go n.every(n.cfg.AntiEntropyInterval, func() {
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.AntiEntropyInterval)
		defer cancel()
		if _, err := n.AntiEntropy(ctx); err != nil {
			n.cfg.Logf("fleet: anti-entropy sweep: %v", err)
		}
	})
}

// Close stops the background loops and waits for in-flight replication
// pushes to finish.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// every runs fn once per period until Close.
func (n *Node) every(period time.Duration, fn func()) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(period):
		}
		fn()
	}
}

// probeTick is one beat of the probe loop: finish the join handshake
// if it is still pending, then probe every peer.
func (n *Node) probeTick() {
	n.mu.Lock()
	joined := n.joined
	n.mu.Unlock()
	if !joined {
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeInterval+2*time.Second)
		if err := n.JoinFleet(ctx); err != nil {
			n.cfg.Logf("fleet: join via %s: %v (retrying)", n.cfg.Join, err)
		}
		cancel()
	}
	n.ProbeOnce(context.Background())
}

// othersSorted returns the current non-self members in deterministic
// order.
func (n *Node) othersSorted() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// alive reports whether peer passed its last health probe (self is
// always alive).
func (n *Node) alive(peer string) bool {
	if peer == n.cfg.Self {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.peers[peer]
	return ok && ps.alive
}

// ProbeOnce probes every peer once and updates the alive map. Probes
// are debounced: it takes cfg.ProbeFails *consecutive* failures to
// mark a peer down (one dropped packet must not reshuffle the ring)
// and a single success to bring it back. Each probe hits the peer's
// /fleet/info endpoint, so membership convergence rides along for
// free: a peer advertising a newer membership epoch is adopted on the
// spot. The first completed round flips the node ready.
func (n *Node) ProbeOnce(ctx context.Context) {
	others := n.othersSorted()
	type probeResult struct {
		peer string
		rtt  time.Duration
		info Info
		err  error
	}
	results := make(chan probeResult, len(others))
	for _, p := range others {
		go func(peer string) {
			pctx, cancel := context.WithTimeout(ctx, min(n.cfg.ProbeInterval, 2*time.Second))
			defer cancel()
			start := time.Now()
			var info Info
			err := n.call(pctx, peer, http.MethodGet, "/fleet/info", nil, &info)
			if errors.Is(err, errBadBody) {
				// Alive but not gossiping: health and gossip are separate
				// concerns, and an empty view is never adopted.
				info, err = Info{}, nil
			}
			results <- probeResult{peer, time.Since(start), info, err}
		}(p)
	}
	for range others {
		r := <-results
		n.mu.Lock()
		ps, ok := n.peers[r.peer]
		if !ok {
			// The peer left the membership while its probe was in flight.
			n.mu.Unlock()
			continue
		}
		was := ps.alive
		if r.err == nil {
			ps.alive = true
			ps.fails = 0
			ps.rtt = r.rtt
			ps.lastErr = ""
		} else {
			ps.fails++
			ps.lastErr = r.err.Error()
			if ps.fails >= n.cfg.ProbeFails {
				ps.alive = false
			}
		}
		now := ps.alive
		fails := ps.fails
		n.mu.Unlock()
		if was != now {
			if now {
				n.cfg.Logf("fleet: peer %s up (rtt %v)", r.peer, r.rtt.Round(time.Microsecond))
			} else {
				n.cfg.Logf("fleet: peer %s down after %d consecutive probe failures: %v", r.peer, fails, r.err)
			}
		}
		if r.err == nil {
			n.maybeAdopt(r.info.Epoch, r.info.Members, r.peer)
		}
	}
	n.mu.Lock()
	n.ready = true
	n.mu.Unlock()
}

// errBadBody marks a 2xx peer response whose body did not decode.
var errBadBody = errors.New("undecodable response body")

// call is the one fleet-internal request: method path on peer, with in
// as the body (nil for none, a []byte verbatim, anything else as JSON)
// and a 2xx JSON answer decoded into out (nil discards it). It is
// retry-free on purpose: ProbeFails counts *consecutive* failures, and
// every caller is a periodic loop that catches the peer next round.
func (n *Node) call(ctx context.Context, peer, method, path string, in, out any) error {
	var body io.Reader
	switch v := in.(type) {
	case nil:
	case []byte:
		body = bytes.NewReader(v)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("fleet: %s %s%s: %s: %s", method, peer, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10)) //nolint:errcheck // drain for reuse
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(out); err != nil {
		return fmt.Errorf("fleet: %s %s%s: %w: %v", method, peer, path, errBadBody, err)
	}
	return nil
}

// --- dynamic membership ---

// memberView is the membership wire shape (POST /fleet/membership,
// and the POST /fleet/join response).
type memberView struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// joinRequest is the POST /fleet/join body.
type joinRequest struct {
	URL string `json:"url"`
}

// viewLess orders membership views: a strictly higher epoch wins, and
// a tied epoch falls back to the lexicographic member fingerprint so
// every node converges on the same view no matter the arrival order.
func viewLess(epochA uint64, fpA string, epochB uint64, fpB string) bool {
	if epochA != epochB {
		return epochA < epochB
	}
	return fpA < fpB
}

func fingerprint(members []string) string { return strings.Join(members, ",") }

// maybeAdopt installs a peer-advertised membership view if it is newer
// than the local one (see viewLess). A view that drops this node —
// which only a buggy or partitioned peer can produce, since membership
// changes flow through join/leave — is self-healed: the node re-adds
// itself at a higher epoch and broadcasts the correction. Returns
// whether the view was adopted.
func (n *Node) maybeAdopt(epoch uint64, members []string, from string) bool {
	members = normalizeMembers(members)
	if len(members) == 0 {
		return false
	}
	fp := fingerprint(members)

	n.mu.Lock()
	if n.leaving || !viewLess(n.epoch, fingerprint(n.members), epoch, fp) {
		n.mu.Unlock()
		return false
	}
	readd := false
	if !contains(members, n.cfg.Self) {
		members = normalizeMembers(append(members, n.cfg.Self))
		epoch++
		readd = true
	}
	view, err := n.installLocked(epoch, members)
	n.mu.Unlock()
	if err != nil {
		n.cfg.Logf("fleet: rejecting membership view from %s: %v", from, err)
		return false
	}
	n.cfg.Logf("fleet: adopted membership epoch %d from %s: %d member(s)", epoch, from, len(members))
	if readd {
		n.cfg.Logf("fleet: view from %s dropped self; re-added at epoch %d", from, epoch)
		n.background(10*time.Second, func(ctx context.Context) { n.broadcast(ctx, view, from) })
	}
	return true
}

// installLocked swaps in a membership view — the ring and the peer
// table follow it — and returns its wire form. Callers hold n.mu.
func (n *Node) installLocked(epoch uint64, members []string) (memberView, error) {
	if len(members) > 0 { // the last member to leave keeps its ring of one
		ring, err := NewRing(members, 0)
		if err != nil {
			return memberView{}, err
		}
		n.ring = ring
	}
	n.epoch, n.members = epoch, members
	n.syncPeersLocked()
	return memberView{Epoch: epoch, Members: append([]string(nil), members...)}, nil
}

// syncPeersLocked reconciles the peer-state map with n.members.
// Callers hold n.mu. New peers start dead with zero fails: the next
// probe round brings them up (a single success suffices), and
// until then placement simply prefers established members.
func (n *Node) syncPeersLocked() {
	want := make(map[string]bool, len(n.members))
	for _, m := range n.members {
		if m == n.cfg.Self {
			continue
		}
		want[m] = true
		if _, ok := n.peers[m]; !ok {
			n.peers[m] = &peerState{}
		}
	}
	for p := range n.peers {
		if !want[p] {
			delete(n.peers, p)
		}
	}
}

// JoinFleet performs the join handshake against cfg.Join: POST
// /fleet/join announces this node, and the seed's response is the
// authoritative membership view to adopt. Idempotent — joining twice
// (e.g. after a crash/restart with the same URL) just returns the
// current view.
func (n *Node) JoinFleet(ctx context.Context) error {
	seed := strings.TrimRight(n.cfg.Join, "/")
	if seed == "" {
		return nil
	}
	var view memberView
	if err := n.call(ctx, seed, http.MethodPost, "/fleet/join", joinRequest{URL: n.cfg.Self}, &view); err != nil {
		return err
	}
	n.maybeAdopt(view.Epoch, view.Members, seed)
	n.mu.Lock()
	n.joined = contains(n.members, n.cfg.Self) && len(n.members) > 1
	ok := n.joined
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: join via %s: response did not include self", seed)
	}
	n.cfg.Logf("fleet: joined via %s (epoch %d, %d member(s))", seed, view.Epoch, len(view.Members))
	return nil
}

// Leave gracefully removes this node from the fleet: bump the epoch,
// drop self from the membership, hand off every locally-held verified
// blob to its new ring owners, then broadcast the new view. The node
// keeps serving its HTTP surface afterwards (so an in-flight sweep can
// drain its queued jobs), but reports not-ready and stops stealing.
func (n *Node) Leave(ctx context.Context) error {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return nil
	}
	n.leaving = true
	remaining := make([]string, 0, len(n.members))
	for _, m := range n.members {
		if m != n.cfg.Self {
			remaining = append(remaining, m)
		}
	}
	view, err := n.installLocked(n.epoch+1, remaining)
	ring := n.ring
	n.mu.Unlock()
	if err != nil {
		return err
	}
	n.cfg.Logf("fleet: leaving (epoch %d, %d member(s) remain)", view.Epoch, len(remaining))
	n.handoff(ctx, ring)
	n.broadcast(ctx, view, "")
	return nil
}

// Handoff re-pushes every verified local blob to its current ring
// owners. It backs the graceful-leave path, and a leaving daemon calls
// it again after draining its queue: results produced during the drain
// replicate via OnStored, but those pushes are fire-and-forget and a
// flaky network can drop them — this pass is the verified, retried
// delivery that makes "graceful leave loses nothing" hold.
func (n *Node) Handoff(ctx context.Context) { n.handoff(ctx, n.Ring()) }

// handoff pushes every verified local blob to its post-leave ring
// owners so no range loses its replicas when this node departs. Pushes
// are idempotent (PutRaw overwrites with identical bytes), so
// re-pushing a blob an owner already holds costs one round trip and
// nothing else. Failed pushes are retried for a few rounds: the
// handoff runs exactly once per departure, so it must out-stubborn a
// lossy network rather than lean on a later repair pass that will
// never come.
func (n *Node) handoff(ctx context.Context, ring *Ring) {
	keys, err := n.store.Keys()
	if err != nil {
		n.cfg.Logf("fleet: leave handoff: %v", err)
		return
	}
	// due maps a key to the owners still missing it; nil means nobody
	// has been tried yet, so every owner is due.
	due := make(map[string][]string, len(keys))
	for _, key := range keys {
		due[key] = nil
	}
	pushed := 0
	for round := 0; len(due) > 0 && round < 4; round++ {
		if round > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond << (round - 1)):
			}
		}
		for key, missing := range due {
			if ctx.Err() != nil {
				n.cfg.Logf("fleet: leave handoff interrupted: %v", ctx.Err())
				return
			}
			ok, failed := n.replicate(ctx, ring, key, nil, "", func(owner string) bool {
				return missing != nil && !contains(missing, owner)
			})
			pushed += ok
			n.handoffPushed.Add(int64(ok))
			if due[key] = failed; len(failed) == 0 {
				delete(due, key)
			}
		}
	}
	if len(due) > 0 {
		n.cfg.Logf("fleet: leave handoff gave up on %d blob(s)", len(due))
	}
	n.cfg.Logf("fleet: leave handoff pushed %d blob replica(s)", pushed)
}

// background runs fn under a deadline on a goroutine Close waits for.
func (n *Node) background(timeout time.Duration, fn func(ctx context.Context)) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		fn(ctx)
	}()
}

// broadcast fans a membership view out to every other member (minus
// exclude).
func (n *Node) broadcast(ctx context.Context, view memberView, exclude string) {
	for _, m := range view.Members {
		if m == n.cfg.Self || m == exclude {
			continue
		}
		if err := n.call(ctx, m, http.MethodPost, "/fleet/membership", view, nil); err != nil {
			// Probe-piggybacked gossip converges any member the
			// broadcast misses.
			n.cfg.Logf("fleet: membership broadcast to %s: %v", m, err)
		}
	}
}

// ReconcilePending fetches already-computed results for journaled jobs
// from the fleet before the runner re-queues them: a restarted node
// whose peers raced re-execution (or stole the work) while it was down
// completes those jobs as cache hits instead of double-running them.
// Returns how many blobs were fetched. Call after a probe round (so
// peer liveness is known) and before Runner.Recover.
func (n *Node) ReconcilePending(ctx context.Context, pending []sweep.PendingJob) int {
	fetched := 0
	seen := make(map[string]bool, len(pending))
	for _, p := range pending {
		if ctx.Err() != nil {
			break
		}
		key := p.Spec.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok, err := n.store.Get(key); err == nil && ok {
			continue // already held locally; Recover completes it as a hit
		}
		if n.fetchInto(ctx, key) {
			fetched++
			n.reconciled.Add(1)
		}
	}
	if fetched > 0 {
		n.cfg.Logf("fleet: reconciled %d journaled job(s) via peer blobs", fetched)
	}
	return fetched
}

// stealResponse is the POST /fleet/steal answer: up to stealBatch
// queued specs.
type stealResponse struct {
	Specs []sweep.Spec `json:"specs"`
}

// StealOnce pulls queued work from peers when this node is idle:
// specs come back, are recorded against their victim for result
// replication, and enter the local runner like any other submission.
// Stealing is safe precisely because execution is deterministic — the
// worst case is one duplicate, byte-identical execution. Returns how
// many specs were adopted.
func (n *Node) StealOnce(ctx context.Context) (int, error) {
	r := n.runner.Load()
	if r == nil {
		return 0, nil
	}
	if ok, _ := n.Ready(); !ok {
		return 0, nil
	}
	if m := r.Metrics(); m.QueueDepth > 0 || m.Inflight > 0 {
		return 0, nil // only idle nodes steal
	}
	var lastErr error
	for _, peer := range n.othersSorted() {
		if !n.alive(peer) {
			continue
		}
		var haul stealResponse
		if err := n.call(ctx, peer, http.MethodPost, "/fleet/steal", nil, &haul); err != nil {
			lastErr = err
			continue
		}
		adopted := 0
		for _, spec := range haul.Specs {
			if n.adopt(r, peer, spec) {
				adopted++
			}
		}
		if adopted > 0 {
			n.stolenIn.Add(int64(adopted))
			return adopted, nil // politeness: one victim per idle tick
		}
	}
	return 0, lastErr
}

// adopt submits one stolen spec locally. The victim is recorded
// before the submit so the OnStored hook (which may fire immediately
// from a worker) replicates the result back; a submit that is already
// a cache hit runs the hook right away, so the victim's queued job
// completes as a cache hit.
func (n *Node) adopt(r *sweep.Runner, victim string, spec sweep.Spec) bool {
	key := spec.Key()
	n.mu.Lock()
	n.victims[key] = victim
	n.mu.Unlock()
	job, err := r.Submit(spec)
	if err != nil {
		n.mu.Lock()
		delete(n.victims, key)
		n.mu.Unlock()
		return false
	}
	if job.Cached {
		n.OnStored(key, nil)
	}
	return true
}

// OnStored is the runner hook: after a local execution lands its
// result in the store, replicate the blob to the other ring owners —
// and to the steal victim, if this was stolen work (a nil payload is
// read back from the store). Runs the pushes on a background goroutine
// so the worker is never blocked on a peer, and fire-and-forget:
// anti-entropy repairs what they miss.
func (n *Node) OnStored(key string, payload []byte) {
	n.mu.Lock()
	victim := n.victims[key]
	delete(n.victims, key)
	ring := n.ring
	n.mu.Unlock()

	n.background(30*time.Second, func(ctx context.Context) {
		n.replicate(ctx, ring, key, payload, victim, nil)
	})
}

// replicate is the one replication loop: it makes sure every owner of
// key on ring — and also, when named (a steal victim) — holds the blob,
// except this node and the peers skip reports as already holding it. A
// nil payload is read from the store on the first push that needs it;
// a blob that no longer verifies there is not worth sending. Returns
// how many pushes landed and which targets they missed.
func (n *Node) replicate(ctx context.Context, ring *Ring, key string, payload []byte, also string, skip func(peer string) bool) (pushed int, failed []string) {
	targets := ring.Owners(key, n.cfg.Replicas)
	if also != "" && !contains(targets, also) {
		targets = append(targets, also)
	}
	for _, t := range targets {
		if t == n.cfg.Self || skip != nil && skip(t) {
			continue
		}
		if payload == nil {
			var ok bool
			if payload, ok, _ = n.store.Get(key); !ok {
				return pushed, failed
			}
		}
		if n.push(ctx, t, key, payload) {
			pushed++
		} else {
			failed = append(failed, t)
		}
	}
	return pushed, failed
}

// push replicates one result payload to a peer (PUT
// /fleet/results/{key}). Failures are logged, not fatal: the
// anti-entropy sweep repairs under-replication later, and the blob can
// always be recomputed.
func (n *Node) push(ctx context.Context, peer, key string, payload []byte) bool {
	if err := n.call(ctx, peer, http.MethodPut, "/fleet/results/"+key, payload, nil); err != nil {
		n.cfg.Logf("fleet: replicate %s to %s: %v", key[:12], peer, err)
		return false
	}
	n.replicasPushed.Add(1)
	return true
}

// validatePayload checks that a result payload arriving from a peer
// decodes and actually belongs under key — the spec embedded in the
// result re-derives the content-addressed key, so a mislabeled or
// tampered blob is rejected before it can poison the store.
func validatePayload(key string, payload []byte) error {
	var res sweep.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("fleet: result payload does not decode: %w", err)
	}
	if got := res.Spec.Key(); got != key {
		return fmt.Errorf("fleet: result payload key mismatch: body is for %s", got)
	}
	return nil
}

// RepairStats summarizes one anti-entropy sweep.
type RepairStats struct {
	// CorruptHealed counts local blobs whose integrity footer failed
	// verification and were re-fetched byte-identical from a peer.
	CorruptHealed int `json:"corrupt_healed"`
	// CorruptDropped counts corrupt blobs no peer could supply; they are
	// deleted (they already read as cache misses) and will be recomputed
	// on demand.
	CorruptDropped int `json:"corrupt_dropped"`
	// Pushed counts blobs sent to co-owners that were missing them.
	Pushed int `json:"pushed"`
	// Pulled counts owned blobs this node was missing and fetched.
	Pulled int `json:"pulled"`
}

// AntiEntropy runs one replica repair sweep:
//
//  1. verify every local blob's integrity footer; heal corrupt ones
//     from a peer (or drop them if nobody has a copy),
//  2. exchange verified key lists with alive peers,
//  3. push blobs to co-owners that are missing them,
//  4. pull blobs this node owns but does not hold.
//
// The store's integrity footer is the only comparison needed: a blob
// either verifies (and is byte-identical everywhere, by the
// determinism contract) or reads as a miss and gets repaired.
func (n *Node) AntiEntropy(ctx context.Context) (RepairStats, error) {
	var st RepairStats
	ring := n.Ring()
	keys, err := n.store.Keys()
	if err != nil {
		return st, err
	}
	verified := make(map[string]bool, len(keys))
	for _, key := range keys {
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		_, ok, err := n.store.Get(key)
		if err != nil {
			continue
		}
		if ok {
			verified[key] = true
			continue
		}
		// Corrupt (or footer-less) blob: heal from a peer or drop it.
		if n.fetchInto(ctx, key) {
			st.CorruptHealed++
			n.repairCorrupt.Add(1)
			verified[key] = true
		} else if n.store.Delete(key) == nil {
			st.CorruptDropped++
		}
	}

	others := n.othersSorted()
	if len(others) == 0 {
		return st, nil
	}
	// Key exchange: who verifiably holds what. A peer whose key list
	// cannot be fetched is left out of the push — absence of evidence
	// must not look like absence of a blob.
	peerKeys := make(map[string]map[string]bool)
	for _, p := range others {
		if !n.alive(p) {
			continue
		}
		var ks []string
		if err := n.call(ctx, p, http.MethodGet, "/fleet/keys", nil, &ks); err != nil {
			n.cfg.Logf("fleet: key exchange with %s: %v", p, err)
			continue
		}
		set := make(map[string]bool, len(ks))
		for _, k := range ks {
			set[k] = true
		}
		peerKeys[p] = set
	}

	// Push under-replicated blobs to their co-owners.
	for key := range verified {
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		if !ring.IsOwner(key, n.cfg.Self, n.cfg.Replicas) {
			continue
		}
		ok, failed := n.replicate(ctx, ring, key, nil, "", func(owner string) bool {
			held, exchanged := peerKeys[owner]
			return !exchanged || held[key]
		})
		st.Pushed += ok + len(failed)
		n.repairPush.Add(int64(ok + len(failed)))
	}

	// Pull owned blobs this node is missing.
	for _, set := range peerKeys {
		for key := range set {
			if verified[key] || !ring.IsOwner(key, n.cfg.Self, n.cfg.Replicas) {
				continue
			}
			if ctx.Err() != nil {
				return st, ctx.Err()
			}
			if n.fetchInto(ctx, key) {
				verified[key] = true
				st.Pulled++
				n.repairPull.Add(1)
			}
		}
	}

	return st, nil
}

// fetchInto retrieves key's payload from the first alive peer that can
// serve a valid copy (owners first — they are the likeliest holders)
// and stores it byte-identical. Reports success.
func (n *Node) fetchInto(ctx context.Context, key string) bool {
	ring := n.Ring()
	for _, p := range ring.Owners(key, len(ring.Nodes())) {
		if p == n.cfg.Self || !n.alive(p) {
			continue
		}
		// The per-request retry budget stays tight: the next owner on the
		// ring is the real recovery path, not transport-level persistence.
		peer := sweep.Client{Base: p, HTTP: n.cfg.HTTP,
			Retries: 1, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond}
		payload, err := peer.ResultBytes(ctx, key)
		if err != nil {
			continue
		}
		if err := validatePayload(key, payload); err != nil {
			n.cfg.Logf("fleet: repair %s from %s: %v", key[:12], p, err)
			continue
		}
		if err := n.store.PutRaw(key, payload); err != nil {
			n.cfg.Logf("fleet: repair %s: %v", key[:12], err)
			return false
		}
		return true
	}
	return false
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// --- sweep.FleetPlane ---

// Register mounts the fleet-internal endpoints on the node's mux:
//
//	POST /fleet/steal          hand out queued specs (work-stealing)
//	PUT  /fleet/results/{key}  accept a replicated result blob
//	GET  /fleet/keys           verified result keys held here
//	GET  /fleet/info           membership, health and ring view
//	POST /fleet/join           admit a new member, return the view
//	POST /fleet/leave          gracefully leave the fleet (handoff)
//	POST /fleet/membership     adopt a broadcast membership view
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/steal", n.handleSteal)
	mux.HandleFunc("PUT /fleet/results/{key}", n.handleReplicate)
	mux.HandleFunc("GET /fleet/keys", n.handleKeys)
	mux.HandleFunc("GET /fleet/info", n.handleInfo)
	mux.HandleFunc("POST /fleet/join", n.handleJoin)
	mux.HandleFunc("POST /fleet/leave", n.handleLeave)
	mux.HandleFunc("POST /fleet/membership", n.handleMembership)
}

// Ready reports whether the node can accept fleet work: the join
// handshake (if configured) has completed, the first probe round has
// run, and the node is not leaving.
func (n *Node) Ready() (bool, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving {
		return false, "fleet: leaving the fleet"
	}
	if !n.joined {
		return false, "fleet: join handshake pending"
	}
	if !n.ready {
		return false, "fleet: first peer-probe round pending"
	}
	return true, ""
}

// WriteProm appends the fleet gauges to a Prometheus scrape.
func (n *Node) WriteProm(w io.Writer) error {
	info := n.Snapshot()
	var ups, rtts []telemetry.LabeledValue
	for _, p := range info.Peers {
		peer := [][2]string{{"peer", p.URL}}
		up := 0.0
		if p.Alive { // self is trivially up
			up = 1.0
		}
		ups = append(ups, telemetry.LabeledValue{Labels: peer, Value: up})
		if !p.Self {
			rtts = append(rtts, telemetry.LabeledValue{Labels: peer, Value: p.RTTMS / 1e3})
		}
	}

	pw := telemetry.NewPromWriter(w)
	pw.GaugeVec("emerald_fleet_peer_up",
		"Whether the peer passed its last liveness probe (self always 1).", ups)
	if len(rtts) > 0 {
		pw.GaugeVec("emerald_fleet_peer_rtt_seconds",
			"Last liveness-probe round trip per peer.", rtts)
	}
	pw.Counter("emerald_fleet_jobs_stolen_in_total",
		"Queued specs pulled from peers by the work-steal loop.",
		float64(n.stolenIn.Load()))
	pw.Counter("emerald_fleet_replicas_pushed_total",
		"Result blobs successfully replicated to peers.",
		float64(n.replicasPushed.Load()))
	pw.CounterVec("emerald_fleet_repairs_total",
		"Anti-entropy repairs by kind (corrupt blob healed, missing owned blob pulled, under-replicated blob pushed).",
		[]telemetry.LabeledValue{
			{Labels: [][2]string{{"kind", "corrupt"}}, Value: float64(n.repairCorrupt.Load())},
			{Labels: [][2]string{{"kind", "pull"}}, Value: float64(n.repairPull.Load())},
			{Labels: [][2]string{{"kind", "push"}}, Value: float64(n.repairPush.Load())},
		})
	pw.Gauge("emerald_fleet_membership_epoch",
		"Current membership view version (higher wins).", float64(info.Epoch))
	pw.Gauge("emerald_fleet_members",
		"Members in the current view, self included.", float64(len(info.Members)))
	pw.Counter("emerald_fleet_handoff_pushed_total",
		"Blob replicas pushed to new owners during a graceful leave.",
		float64(n.handoffPushed.Load()))
	pw.Counter("emerald_fleet_reconciled_total",
		"Journaled jobs completed via peer blobs at restart instead of re-executing.",
		float64(n.reconciled.Load()))
	return pw.Err()
}

// --- HTTP handlers ---

func (n *Node) handleSteal(w http.ResponseWriter, _ *http.Request) {
	var specs []sweep.Spec
	if run := n.runner.Load(); run != nil && !run.Draining() {
		specs = run.StealQueued(stealBatch)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stealResponse{Specs: specs}) //nolint:errcheck
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := validatePayload(key, payload); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := n.store.PutRaw(key, payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleKeys(w http.ResponseWriter, _ *http.Request) {
	keys, err := n.store.Keys()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Only verified blobs count: advertising a corrupt file would let a
	// peer "repair" from garbage (the fetch would fail validation, but
	// the sweep would waste the round trip and skip a real holder).
	out := make([]string, 0, len(keys))
	for _, key := range keys {
		if _, ok, err := n.store.Get(key); err == nil && ok {
			out = append(out, key)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}

// Info is the GET /fleet/info JSON shape. Epoch and Members double as
// the gossip payload: every health probe reads them, so membership
// changes reach probe-connected members within one probe interval even
// if the explicit broadcast was lost.
type Info struct {
	Self     string     `json:"self"`
	Replicas int        `json:"replicas"`
	Ready    bool       `json:"ready"`
	Epoch    uint64     `json:"epoch"`
	Members  []string   `json:"members"`
	Peers    []PeerInfo `json:"peers"`
}

// PeerInfo is one membership row in Info.
type PeerInfo struct {
	URL     string  `json:"url"`
	Self    bool    `json:"self,omitempty"`
	Alive   bool    `json:"alive"`
	RTTMS   float64 `json:"rtt_ms,omitempty"`
	LastErr string  `json:"last_error,omitempty"`
}

// Snapshot returns the node's membership/health view (also served as
// GET /fleet/info).
func (n *Node) Snapshot() Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	info := Info{
		Self: n.cfg.Self, Replicas: n.cfg.Replicas,
		Ready:   n.ready && n.joined && !n.leaving,
		Epoch:   n.epoch,
		Members: append([]string(nil), n.members...),
	}
	for _, p := range n.members {
		if p == n.cfg.Self {
			info.Peers = append(info.Peers, PeerInfo{URL: p, Self: true, Alive: true})
			continue
		}
		ps, ok := n.peers[p]
		if !ok {
			continue
		}
		info.Peers = append(info.Peers, PeerInfo{
			URL: p, Alive: ps.alive,
			RTTMS:   float64(ps.rtt) / float64(time.Millisecond),
			LastErr: ps.lastErr,
		})
	}
	sort.Slice(info.Peers, func(i, j int) bool { return info.Peers[i].URL < info.Peers[j].URL })
	return info
}

func (n *Node) handleInfo(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Snapshot()) //nolint:errcheck
}

// handleJoin admits a new member: bump the epoch, extend the ring, and
// return the authoritative view. The rest of the fleet learns via
// broadcast (and, failing that, via probe-piggybacked gossip).
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad join request: %v", err), http.StatusBadRequest)
		return
	}
	joiner := strings.TrimRight(strings.TrimSpace(req.URL), "/")
	if joiner == "" {
		http.Error(w, "join request needs a url", http.StatusBadRequest)
		return
	}

	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		http.Error(w, "fleet: this node is leaving; join via another member", http.StatusServiceUnavailable)
		return
	}
	view := memberView{Epoch: n.epoch, Members: append([]string(nil), n.members...)}
	added := !contains(n.members, joiner)
	if added {
		var err error
		view, err = n.installLocked(n.epoch+1, normalizeMembers(append(view.Members, joiner)))
		if err != nil {
			n.mu.Unlock()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The joiner just reached us over HTTP; start it alive rather
		// than waiting out a probe round.
		if ps, ok := n.peers[joiner]; ok {
			ps.alive = true
		}
	}
	n.mu.Unlock()

	if added {
		n.cfg.Logf("fleet: admitted %s (epoch %d, %d member(s))", joiner, view.Epoch, len(view.Members))
		n.background(10*time.Second, func(ctx context.Context) { n.broadcast(ctx, view, joiner) })
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view) //nolint:errcheck
}

// handleLeave triggers a graceful leave on a background goroutine and
// returns 202 immediately (the handoff can outlive the request). The
// OnLeave callback then lets the embedding daemon drain and exit.
func (n *Node) handleLeave(w http.ResponseWriter, _ *http.Request) {
	n.background(60*time.Second, func(ctx context.Context) {
		if err := n.Leave(ctx); err != nil {
			n.cfg.Logf("fleet: leave: %v", err)
			return
		}
		if cb := n.OnLeave; cb != nil {
			cb()
		}
	})
	w.WriteHeader(http.StatusAccepted)
}

// handleMembership adopts a broadcast view.
func (n *Node) handleMembership(w http.ResponseWriter, r *http.Request) {
	var view memberView
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&view); err != nil {
		http.Error(w, fmt.Sprintf("bad membership view: %v", err), http.StatusBadRequest)
		return
	}
	n.maybeAdopt(view.Epoch, view.Members, r.RemoteAddr)
	w.WriteHeader(http.StatusNoContent)
}
