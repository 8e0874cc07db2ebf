package chaos

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// A node crashes mid-execution; a peer re-executes the same spec while
// it is down. On restart the journal replays the accepted job, the
// reconcile step pulls the peer's finished blob, and the job completes
// as a cache hit — the race resolves through the content-addressed
// store, not by running the simulation twice.
func TestJournalReplayRacesReexecution(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	defer gateOnce.Do(func() { close(gate) })

	c, err := NewCluster(t.TempDir(), 2, func(i int) MemberOpts {
		opts := MemberOpts{Logf: t.Logf}
		if i == 0 {
			opts.Exec = func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return sweep.SyntheticExec(0)(ctx, spec)
			}
		}
		return opts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m0, m1 := c.Members[0], c.Members[1]
	for _, m := range c.Members {
		if err := m.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	spec := sweep.Spec{Kind: sweep.KindCS2Sweep, Scale: "smoke", Workload: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := (&sweep.Client{Base: m0.URL}).Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The accept is journaled (fsynced) before Submit returns; the
	// gated executor guarantees the job can never finish here.
	m0.Crash()

	// A peer races the same spec to completion while m0 is down.
	sc1 := &sweep.Client{Base: m1.URL}
	j1, err := sc1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := sc1.Job(ctx, j1.ID)
		if err == nil && j.Terminal() {
			if j.State != sweep.JobDone {
				t.Fatalf("peer execution ended %s: %s", j.State, j.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never finished the raced spec")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := m0.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := m0.Recovered(); got != 1 {
		t.Fatalf("restart found %d journaled job(s), want 1", got)
	}
	j, ok := m0.Runner().Job(job.ID)
	if !ok {
		t.Fatalf("job %s lost across the crash", job.ID)
	}
	if j.State != sweep.JobDone || !j.Cached {
		t.Fatalf("replayed job = %s (cached=%v), want done as a cache hit", j.State, j.Cached)
	}
	if got := m0.ExecCount(); got != 0 {
		t.Fatalf("restarted node executed %d job(s); the reconcile should have made this a cache hit", got)
	}
	if _, ok, _ := m0.Store().Get(spec.Key()); !ok {
		t.Fatal("reconciled blob missing from the restarted node's store")
	}
}

// The permanent chaos gate: a 3-node fleet under seeded network chaos
// (drops, delays, 503s, truncation, asymmetric partitions), store
// corruption on one member, a crash + journal-replaying restart, a
// mid-sweep join and a graceful leave — and the sweep's tables must
// come out byte-identical to a clean single-node run, with zero lost
// jobs. Rerunning with the same seed replays the same fault schedule.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const seed = 42
	want := referenceFigures(t)

	// The storm: seeded chaos on all fleet-internal traffic, store
	// faults on member 2 only (so at least one replica chain is clean
	// and the sweep terminates under our retry budgets).
	engine := New(Config{
		Seed:      seed,
		Drop:      0.05,
		Delay:     0.10,
		MaxDelay:  20 * time.Millisecond,
		Err5xx:    0.05,
		Truncate:  0.03,
		TornWrite: 0.15, BitFlip: 0.10, NoSpace: 0.10,
		Logf: t.Logf,
	})
	cluster, err := NewCluster(t.TempDir(), 3, func(i int) MemberOpts {
		opts := MemberOpts{
			Exec:   sweep.SyntheticExec(150 * time.Millisecond),
			Engine: engine,
			Logf:   t.Logf,
		}
		if i == 2 {
			opts.StoreFault = engine.StoreFault("m2")
		}
		return opts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	urls := make([]string, len(cluster.Members))
	for i, m := range cluster.Members {
		urls[i] = m.URL
		if err := m.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Partition windows are derived from the same seed once the member
	// URLs exist; same seed + same membership = same schedule.
	engine.SetPartitions(GeneratePartitions(seed, urls, 3, 2*time.Second, 400*time.Millisecond))
	schedule := engine.Schedule()
	t.Logf("fault schedule:\n%s", schedule)

	fc, err := fleet.NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc.Hedge = fleet.HedgePolicy{Min: 500 * time.Millisecond}

	type sweepOut struct {
		table []byte
		fs    *sweep.FigureSet
		err   error
	}
	done := make(chan sweepOut, 1)
	go func() {
		table, fs, err := runFigures(fc)
		done <- sweepOut{table, fs, err}
	}()

	// The storm schedule, while the sweep is in flight:
	// crash m0 (journaled jobs strand), join a 4th member, restart m0
	// (journal replay + reconcile), gracefully remove m1 (handoff).
	m0, m1 := cluster.Members[0], cluster.Members[1]
	time.Sleep(200 * time.Millisecond)
	m0.Crash()
	t.Log("storm: crashed m0")

	time.Sleep(250 * time.Millisecond)
	joined, err := cluster.Join(m1, MemberOpts{
		Exec:   sweep.SyntheticExec(150 * time.Millisecond),
		Engine: engine,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("mid-sweep join: %v", err)
	}
	t.Logf("storm: joined %s", joined.URL)

	time.Sleep(250 * time.Millisecond)
	if err := m0.Restart(); err != nil {
		t.Fatalf("restart m0: %v", err)
	}
	t.Logf("storm: restarted m0 (%d journaled job(s) replayed)", m0.Recovered())

	time.Sleep(300 * time.Millisecond)
	leaveCtx, cancelLeave := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelLeave()
	if err := m1.Leave(leaveCtx); err != nil {
		t.Fatalf("graceful leave of m1: %v", err)
	}
	t.Log("storm: m1 left gracefully")

	out := <-done
	if out.err != nil {
		t.Fatalf("chaos sweep: %v", out.err)
	}

	// The core acceptance: byte-identical tables, zero lost jobs.
	checkFigures(t, out.table, out.fs, want)

	// The storm actually stormed.
	if engine.Total() == 0 {
		t.Fatal("no faults were injected; the soak proved nothing")
	}
	t.Logf("injected faults: %v; hedges: %+v", engine.Counts(), fc.HedgeStats())
	if m0.Recovered() == 0 {
		t.Error("m0 restarted with an empty journal; the crash exercised no WAL replay")
	}

	// Membership converged on the post-storm view: m0, m2 and the
	// joiner, without m1. (Probes gossip the view; give them a beat
	// under lingering chaos.)
	running := []*Member{m0, cluster.Members[2], joined}
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		var views []string
		for _, m := range running {
			_, members := m.Node().Members()
			if len(members) != 3 || containsURL(members, m1.URL) {
				converged = false
			}
			views = append(views, m.URL)
			_ = views
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, m := range running {
				e, members := m.Node().Members()
				t.Logf("%s: epoch %d members %v", m.URL, e, members)
			}
			t.Fatal("membership did not converge after the storm")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Reproducibility: the same seed and membership re-derive the very
	// same fault schedule — the property that makes a soak failure
	// debuggable instead of an anecdote.
	replay := New(Config{
		Seed: seed, Drop: 0.05, Delay: 0.10, MaxDelay: 20 * time.Millisecond,
		Err5xx: 0.05, Truncate: 0.03,
		TornWrite: 0.15, BitFlip: 0.10, NoSpace: 0.10,
	})
	replay.SetPartitions(GeneratePartitions(seed, urls, 3, 2*time.Second, 400*time.Millisecond))
	if replay.Schedule() != schedule {
		t.Fatalf("same seed produced a different fault schedule:\n%s\nvs\n%s", replay.Schedule(), schedule)
	}
}

// A member that answers every probe but never finishes a job is the
// gray failure: it stays in the ring, so its queued work can be stolen,
// but the job it is running cannot. Only the client's hedge, a second
// placement of a job that outlives its deadline, covers that job. With
// hedging disabled and stealing on, the same sweep still had jobs
// pending 30 s in.
func TestHungMemberIsCoveredByHedging(t *testing.T) {
	want := referenceFigures(t)
	cluster, err := NewCluster(t.TempDir(), 3, func(i int) MemberOpts {
		opts := MemberOpts{Logf: t.Logf}
		if i == 0 {
			opts.Exec = func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
		}
		return opts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	urls := make([]string, len(cluster.Members))
	for i, m := range cluster.Members {
		urls[i] = m.URL
		if err := m.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	fc, err := fleet.NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc.Hedge = fleet.HedgePolicy{Min: 500 * time.Millisecond}

	table, fs, err := runFigures(fc)
	if err != nil {
		t.Fatalf("sweep with a hung member: %v", err)
	}
	checkFigures(t, table, fs, want)
	hs := fc.HedgeStats()
	t.Logf("hedges: %+v", hs)
	if hs.Won == 0 {
		t.Fatal("no hedge won: the hung member's in-flight job was covered by something else")
	}
}

// figureRequest is the sweep both fleet tests run: Figures 9 and 17 at
// smoke scale.
var figureRequest = sweep.FigureRequest{Figs: []string{"9", "17"}, Scale: "smoke"}

// runFigures runs figureRequest through svc and returns its tables.
func runFigures(svc sweep.Service) ([]byte, *sweep.FigureSet, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fs, err := sweep.RunFigures(ctx, svc, figureRequest, 5*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	for _, f := range fs.Figures {
		f.Table.Write(&buf)
	}
	return buf.Bytes(), fs, nil
}

// referenceFigures runs figureRequest on one clean member. SyntheticExec
// is a pure function of the spec, so per-job wall time cannot change
// results.
func referenceFigures(t *testing.T) []byte {
	ref, err := NewCluster(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Members[0].WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, _, err := runFigures(&sweep.Client{Base: ref.Members[0].URL})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return want
}

// checkFigures requires tables byte-identical to the clean single-node
// run and zero lost jobs.
func checkFigures(t *testing.T, table []byte, fs *sweep.FigureSet, want []byte) {
	t.Helper()
	if !bytes.Equal(table, want) {
		t.Fatalf("fleet tables differ from the clean single-node run:\nfleet:\n%s\nclean:\n%s", table, want)
	}
	lost := 0
	for _, j := range fs.Jobs {
		if j.State != sweep.JobDone {
			lost++
			t.Errorf("job %s (%s) ended %s: %s", j.ID, j.Key, j.State, j.Error)
		}
	}
	if lost > 0 {
		t.Fatalf("%d job(s) lost", lost)
	}
}

func containsURL(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
