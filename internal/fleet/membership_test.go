package fleet

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emerald/internal/sweep"
)

// startJoiner brings up one extra member configured to join the fleet
// through seed (dynamic membership), with background loops off so the
// test drives the handshake explicitly.
func startJoiner(t *testing.T, seed string) *tnode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	st, err := sweep.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Self: url, Join: seed, Replicas: 2,
		ProbeInterval: time.Hour, StealInterval: time.Hour,
		AntiEntropyInterval: time.Hour,
		ProbeFails:          1,
		Logf:                t.Logf,
	}
	nd, err := New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	r := sweep.NewRunner(st, sweep.RunnerConfig{Workers: 1, Exec: fastExec, OnStored: nd.OnStored})
	nd.SetRunner(r)
	api := sweep.NewServer(r, st)
	api.Fleet = nd
	srv := &http.Server{Handler: api.Handler()}
	go srv.Serve(ln) //nolint:errcheck
	tn := &tnode{url: url, store: st, runner: r, node: nd, srv: srv}
	t.Cleanup(func() {
		srv.Close() //nolint:errcheck
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.Shutdown(ctx) //nolint:errcheck
		cancel()
		nd.Close()
	})
	return tn
}

// A peer is marked down only after ProbeFails consecutive probe
// failures, and a single success recovers it — one dropped packet must
// not reshuffle the ring.
func TestProbeDebounce(t *testing.T) {
	var failing atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "chaos", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer flaky.Close()

	self := "http://127.0.0.1:1" // never probed: only others are
	st, err := sweep.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Self: self, Peers: []string{self, flaky.URL},
		ProbeFails:    3,
		ProbeInterval: time.Hour,
		Logf:          t.Logf,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	ctx := context.Background()
	nd.ProbeOnce(ctx)
	if !nd.alive(flaky.URL) {
		t.Fatal("healthy peer should be alive after one successful probe")
	}

	failing.Store(true)
	nd.ProbeOnce(ctx)
	nd.ProbeOnce(ctx)
	if !nd.alive(flaky.URL) {
		t.Fatal("peer flipped dead after 2 failures; want debounce at 3")
	}
	nd.ProbeOnce(ctx)
	if nd.alive(flaky.URL) {
		t.Fatal("peer still alive after 3 consecutive failures")
	}

	failing.Store(false)
	nd.ProbeOnce(ctx)
	if !nd.alive(flaky.URL) {
		t.Fatal("one successful probe should recover the peer")
	}
}

// POST /fleet/join admits a new member: the seed bumps the epoch and
// rebuilds its ring, the joiner adopts the returned view, and the rest
// of the fleet converges via broadcast. The joiner then participates
// in replication like any born member.
func TestJoinPropagatesMembership(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)

	joiner := startJoiner(t, nodes[0].url)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.node.JoinFleet(ctx); err != nil {
		t.Fatalf("JoinFleet: %v", err)
	}

	epoch, members := joiner.node.Members()
	if epoch != 1 || len(members) != 4 {
		t.Fatalf("joiner view = epoch %d, %d member(s); want epoch 1, 4", epoch, len(members))
	}
	if ok, why := joiner.node.Ready(); ok || why != "fleet: first peer-probe round pending" {
		t.Fatalf("joiner ready=%v (%q) before first probe round", ok, why)
	}

	all := append(append([]*tnode(nil), nodes...), joiner)
	for _, n := range all {
		n := n
		waitFor(t, "membership to converge on "+n.url, func() bool {
			e, m := n.node.Members()
			return e == 1 && len(m) == 4
		})
	}

	// Joining twice (crash/restart with the same URL) is idempotent.
	if err := joiner.node.JoinFleet(ctx); err != nil {
		t.Fatalf("second JoinFleet: %v", err)
	}
	if e, m := nodes[0].node.Members(); e != 1 || len(m) != 4 {
		t.Fatalf("re-join bumped the view: epoch %d, %d member(s)", e, len(m))
	}

	// The joiner is a real replication target on the new ring.
	probeAll(t, all)
	urls := make([]string, len(all))
	for i, n := range all {
		urls[i] = n.url
	}
	spec := findSpecOwnedBy(t, nodes[0].node.Ring(), urls, 3)
	key := spec.Key()
	if _, err := nodes[0].runner.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica to land on the joiner", func() bool { return joiner.holds(key) })
}

// A graceful leave hands owned blobs to their new ring owners, drops
// the leaver from everyone's membership, and flips the leaver
// not-ready — no range loses its replicas.
func TestGracefulLeaveHandsOffBlobs(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	spec, key, primary, _ := replicatedPair(t, nodes)
	_ = spec

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := primary.node.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}

	if ok, why := primary.node.Ready(); ok || why != "fleet: leaving the fleet" {
		t.Fatalf("leaver ready=%v (%q); want not-ready (leaving)", ok, why)
	}
	for _, n := range nodes {
		if n == primary {
			continue
		}
		e, m := n.node.Members()
		if e != 1 || len(m) != 2 || contains(m, primary.url) {
			t.Fatalf("%s view after leave = epoch %d %v; want epoch 1 without the leaver", n.url, e, m)
		}
		// With 2 members and R=2 every survivor owns every key; the
		// handoff must have delivered the blob before Leave returned.
		if !n.holds(key) {
			t.Fatalf("%s is missing the handed-off blob %s", n.url, key[:12])
		}
	}
	if primary.node.handoffPushed.Load() == 0 {
		t.Fatal("leave pushed no blobs; handoff did not run")
	}
}

// A restarted node with journaled (accepted-but-unfinished) jobs whose
// results a peer already computed completes them as cache hits:
// ReconcilePending pulls the blobs, Recover classifies the jobs
// cached, and the local executor never runs.
func TestReconcilePendingCompletesRacedJobsAsCacheHits(t *testing.T) {
	var node0Execs atomic.Int64
	nodes := startCluster(t, 2, func(i int) sweep.Exec {
		if i != 0 {
			return fastExec
		}
		return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
			node0Execs.Add(1)
			return fakeResult(spec)
		}
	}, func(i int, cfg *Config) { cfg.Replicas = 1 })
	probeAll(t, nodes)

	// A spec whose single-replica owner is node 1: node 0 will not
	// receive the blob via replication, only via reconcile.
	urls := []string{nodes[0].url, nodes[1].url}
	spec := findSpecOwnedBy(t, nodes[0].node.Ring(), urls, 1)
	key := spec.Key()
	j, err := nodes[1].runner.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, nodes[1].runner, j.ID)
	if nodes[0].holds(key) {
		t.Fatal("precondition: node 0 must not hold the blob yet")
	}

	// Node 0 "restarts" with this job in its journal; the peer raced
	// the execution while it was down.
	pending := []sweep.PendingJob{{ID: "j99", Spec: spec}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if got := nodes[0].node.ReconcilePending(ctx, pending); got != 1 {
		t.Fatalf("ReconcilePending = %d, want 1", got)
	}
	if !nodes[0].holds(key) {
		t.Fatal("reconcile did not land the peer's blob locally")
	}
	requeued, cached := nodes[0].runner.Recover(pending)
	if requeued != 0 || cached != 1 {
		t.Fatalf("Recover = (%d requeued, %d cached), want (0, 1)", requeued, cached)
	}
	job := waitTerminal(t, nodes[0].runner, "j99")
	if job.State != sweep.JobDone || !job.Cached {
		t.Fatalf("recovered job = %s (cached=%v), want done cache hit", job.State, job.Cached)
	}
	if got := node0Execs.Load(); got != 0 {
		t.Fatalf("node 0 executed %d job(s); reconciled work must not re-execute", got)
	}
}

// A job pending past the hedge deadline gets a second placement on the
// next alive owner, and the hedge's completion wins — while the primary
// is still stuck, and equally when the primary dies after the hedge
// fired: the sibling is then the job's only placement, and no third
// one is opened.
func TestHedgedSubmitCompletesViaNextOwner(t *testing.T) {
	for _, tc := range []struct {
		name        string
		killPrimary bool
	}{
		{"primary stuck", false},
		{"primary dies after the hedge fired", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// gates[i] holds node i's executions until closed.
			gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
			var once [2]sync.Once
			open := func(i int) { once[i].Do(func() { close(gates[i]) }) }
			defer open(0)
			defer open(1)
			if !tc.killPrimary {
				open(1) // the sibling runs at full speed
			}
			nodes := startCluster(t, 2, func(i int) sweep.Exec {
				return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
					select {
					case <-gates[i]:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
					return fakeResult(spec)
				}
			}, nil)
			probeAll(t, nodes)

			urls := []string{nodes[0].url, nodes[1].url}
			spec := findSpecOwnedBy(t, nodes[0].node.Ring(), urls, 0)

			fc, err := NewClient(urls, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Force the floor: no samples yet, Min is the deadline.
			fc.Hedge = HedgePolicy{Min: 50 * time.Millisecond, MinSamples: 1 << 30}
			fc.DownFor = time.Hour

			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			job, err := fc.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.killPrimary {
				go func() {
					for fc.HedgeStats().Fired == 0 && ctx.Err() == nil {
						time.Sleep(time.Millisecond)
					}
					nodes[0].kill()
					// Let WaitAll find the primary gone before the sibling
					// finishes.
					time.Sleep(50 * time.Millisecond)
					open(1)
				}()
			}
			final, err := fc.WaitAll(ctx, []string{job.ID}, 5*time.Millisecond, nil)
			if err != nil {
				t.Fatalf("WaitAll: %v", err)
			}
			got := final[job.ID]
			if got.State != sweep.JobDone {
				t.Fatalf("job state = %s, want done via the hedge", got.State)
			}
			if st := fc.HedgeStats(); st.Fired != 1 || st.Won != 1 {
				t.Fatalf("hedge stats = %+v, want exactly one fired and won", st)
			}
			if placed := len(nodes[1].runner.Jobs()); placed != 1 {
				t.Fatalf("the sibling node holds %d placement(s) of the job, want 1", placed)
			}
		})
	}
}

// Hedging can be disabled outright.
func TestHedgeDisabled(t *testing.T) {
	fc, err := NewClient([]string{"http://a", "http://b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc.Hedge = HedgePolicy{Disabled: true, Min: time.Nanosecond}
	p := &placed{live: []placement{{node: "http://a"}}, submittedAt: time.Now().Add(-time.Hour)}
	fc.maybeHedge(context.Background(), p)
	if p.hedged || len(p.live) != 1 {
		t.Fatal("disabled policy must never hedge")
	}
}
