package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"emerald/internal/sweep"
)

func clusterURLs(nodes []*tnode) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	return urls
}

// figTable runs RunFigures over svc and renders the tables to bytes.
func figTable(t *testing.T, svc sweep.Service, req sweep.FigureRequest) ([]byte, *sweep.FigureSet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fs, err := sweep.RunFigures(ctx, svc, req, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("RunFigures: %v", err)
	}
	var buf bytes.Buffer
	for _, f := range fs.Figures {
		f.Table.Write(&buf)
	}
	return buf.Bytes(), fs
}

var fig9Req = sweep.FigureRequest{
	Figs: []string{"9"}, Scale: "smoke",
	Models: []int{2}, Configs: []string{"BAS", "DCB", "DTB", "HMC"},
}

// A sweep fanned across a 3-node fleet produces tables byte-identical
// to the single-node path, and a warm re-run is served entirely from
// the fleet's caches.
func TestFleetFiguresMatchSingleNode(t *testing.T) {
	single := startCluster(t, 1, nil, nil)
	probeAll(t, single)
	want, _ := figTable(t, &sweep.Client{Base: single[0].url}, fig9Req)

	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)
	fc, err := NewClient(clusterURLs(nodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, cold := figTable(t, fc, fig9Req)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet table differs from single-node table:\nfleet:\n%s\nsingle:\n%s", got, want)
	}
	if cold.CacheHits() != 0 {
		t.Fatalf("cold fleet run reported %d cache hits", cold.CacheHits())
	}
	warm, ws := figTable(t, fc, fig9Req)
	if !bytes.Equal(warm, want) {
		t.Fatal("warm fleet table differs")
	}
	if ws.CacheHits() != len(ws.Jobs) {
		t.Fatalf("warm run: %d/%d cache hits, want 100%%", ws.CacheHits(), len(ws.Jobs))
	}
}

// Killing a node mid-sweep (HTTP surface gone, runner aborted — the
// in-process analog of kill -9) loses zero jobs: the fleet client
// relocates the dead node's pending work along the ring and the final
// table is still byte-identical.
func TestFleetSurvivesNodeDeathMidSweep(t *testing.T) {
	single := startCluster(t, 1, nil, nil)
	probeAll(t, single)
	want, _ := figTable(t, &sweep.Client{Base: single[0].url}, fig9Req)

	// Slow executions keep the sweep in flight long enough to kill a
	// node while it still owns pending jobs.
	slowExec := func(int) sweep.Exec {
		return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(300 * time.Millisecond):
			}
			return fakeResult(spec)
		}
	}
	nodes := startCluster(t, 3, slowExec, nil)
	probeAll(t, nodes)
	fc, err := NewClient(clusterURLs(nodes), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the primary owner of the first cell shortly after the sweep
	// starts — it is guaranteed to have received work.
	opt, err := sweep.ScaleOptions("smoke")
	if err != nil {
		t.Fatal(err)
	}
	firstKey := sweep.Spec{Kind: sweep.KindCS1, Scale: "smoke", Model: 2,
		Config: "BAS", Mbps: opt.RegularMbps}.Key()
	victimURL := nodes[0].node.Ring().Owners(firstKey, 1)[0]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(100 * time.Millisecond)
		for _, n := range nodes {
			if n.url == victimURL {
				n.kill()
			}
		}
	}()

	got, fs := figTable(t, fc, fig9Req)
	<-killed
	if !bytes.Equal(got, want) {
		t.Fatalf("table after node death differs:\n%s\nwant:\n%s", got, want)
	}
	if len(fs.Jobs) != 4 {
		t.Fatalf("expected 4 unique jobs, got %d", len(fs.Jobs))
	}
	for _, j := range fs.Jobs {
		if j.State != sweep.JobDone {
			t.Fatalf("job %s (%s) = %s — a job was lost to the node death", j.ID, j.Spec, j.State)
		}
	}
}

// Submit fails over when the primary owner is down at submit time.
func TestClientSubmitFailsOverDeadPrimary(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)
	urls := clusterURLs(nodes)
	spec := findSpecOwnedBy(t, nodes[0].node.Ring(), urls, 1)
	nodes[1].kill()

	fc, err := NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := fc.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit with dead primary: %v", err)
	}
	final, err := fc.WaitAll(ctx, []string{job.ID}, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final[job.ID].State != sweep.JobDone {
		t.Fatalf("job = %+v, want done on a surviving node", final[job.ID])
	}
}

// The fleet client places a spec on the first alive ring owner of its
// key, so blobs live where the placement ring says they live and warm
// sweeps hit without cross-node fetches.
func TestClientPlacementFollowsRing(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)
	urls := clusterURLs(nodes)
	fc, err := NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byURL := make(map[string]*tnode)
	for _, n := range nodes {
		byURL[n.url] = n
	}
	for mbps := 1; mbps <= 8; mbps++ {
		spec := cs1Spec(mbps)
		if _, err := fc.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
		primary := byURL[nodes[0].node.Ring().Owners(spec.Key(), 1)[0]]
		waitFor(t, "primary to execute its own key", func() bool {
			return primary.holds(spec.Key())
		})
	}
}

// A node that stops answering mid-poll marks down and the job
// relocates; the synthetic job id survives the move.
func TestClientRelocationKeepsSyntheticID(t *testing.T) {
	// A one-node "fleet" fronted by a flaky proxy is hard to arrange;
	// instead: 2 real nodes, kill the one holding the job mid-wait.
	slowExec := func(int) sweep.Exec {
		return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(200 * time.Millisecond):
			}
			return fakeResult(spec)
		}
	}
	nodes := startCluster(t, 2, slowExec, nil)
	probeAll(t, nodes)
	urls := clusterURLs(nodes)
	spec := findSpecOwnedBy(t, nodes[0].node.Ring(), urls, 0)

	fc, err := NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := fc.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		for _, n := range nodes {
			if n.url == urls[0] {
				n.kill()
			}
		}
	}()
	var doneIDs []string
	final, err := fc.WaitAll(ctx, []string{job.ID}, 2*time.Millisecond,
		func(j sweep.Job) { doneIDs = append(doneIDs, j.ID) })
	if err != nil {
		t.Fatal(err)
	}
	if final[job.ID].State != sweep.JobDone || len(doneIDs) != 1 || doneIDs[0] != job.ID {
		t.Fatalf("final=%+v doneIDs=%v, want done under the original synthetic id %s",
			final[job.ID], doneIDs, job.ID)
	}
}

// A node answering 503 at submit (queue full) fails over to the next
// owner instead of aborting the sweep.
func TestClientFailsOverOn503(t *testing.T) {
	var hits atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, "queue full", http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	nodes := startCluster(t, 1, nil, nil)
	probeAll(t, nodes)

	fc, err := NewClient([]string{busy.URL, nodes[0].url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Whatever the primary, one of the two candidates always 503s and
	// the other accepts; every submit must land.
	for mbps := 1; mbps <= 4; mbps++ {
		job, err := fc.Submit(ctx, cs1Spec(mbps))
		if err != nil {
			t.Fatalf("Submit with a 503ing member: %v", err)
		}
		final, err := fc.WaitAll(ctx, []string{job.ID}, 2*time.Millisecond, nil)
		if err != nil || final[job.ID].State != sweep.JobDone {
			t.Fatalf("job did not complete on the healthy node: %v %+v", err, final[job.ID])
		}
	}
}

// Real simulations across the fleet: the table from 3 nodes running
// actual smoke-scale cells matches the single-node real-sim table.
// Skipped in -short (it runs real simulations).
func TestFleetRealSimMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	realExec := func(int) sweep.Exec { return nil } // nil -> default simulator
	req := sweep.FigureRequest{Figs: []string{"9"}, Scale: "smoke",
		Models: []int{2}, Configs: []string{"BAS", "DCB"}}

	single := startCluster(t, 1, realExec, nil)
	probeAll(t, single)
	want, _ := figTable(t, &sweep.Client{Base: single[0].url}, req)

	nodes := startCluster(t, 3, realExec, nil)
	probeAll(t, nodes)
	fc, err := NewClient(clusterURLs(nodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := figTable(t, fc, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("real-sim fleet table differs from single node:\n%s\nwant:\n%s", got, want)
	}
}

// The client keeps every pending placement but only the last
// sweep.KeepFinished jobs whose terminal snapshot it handed out, from
// Submit (a cache hit) or from WaitAll.
func TestClientTrackedStaysBounded(t *testing.T) {
	release := make(chan struct{})
	holdOnNode0 := func(i int) sweep.Exec {
		return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
			if i == 0 {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return fakeResult(spec)
		}
	}
	nodes := startCluster(t, 2, holdOnNode0, nil)
	probeAll(t, nodes)
	urls := clusterURLs(nodes)
	ring := nodes[0].node.Ring()
	fc, err := NewClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc.Hedge.Disabled = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	held, err := fc.Submit(ctx, findSpecOwnedBy(t, ring, urls, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Node 0's one worker is held, so every other spec is one node 1
	// owns; every second submit repeats the last spec and hits its cache.
	var sids []string
	var spec sweep.Spec
	for mbps := 1; len(sids) < sweep.KeepFinished+100; mbps++ {
		if len(sids)%2 == 0 {
			if spec = cs1Spec(mbps); ring.Owners(spec.Key(), 1)[0] != urls[1] {
				continue
			}
		}
		job, err := fc.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !job.Terminal() {
			if _, err := fc.WaitAll(ctx, []string{job.ID}, time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
		}
		sids = append(sids, job.ID)
	}

	fc.mu.Lock()
	n := len(fc.tracked)
	fc.mu.Unlock()
	if n != sweep.KeepFinished+1 {
		t.Fatalf("client tracks %d jobs, want %d finished plus the held one", n, sweep.KeepFinished)
	}
	for i, sid := range sids {
		if _, err := fc.placement(sid); (err == nil) != (i >= len(sids)-sweep.KeepFinished) {
			t.Fatalf("job %d of %d (%s): placement error %v", i, len(sids), sid, err)
		}
	}
	close(release)
	final, err := fc.WaitAll(ctx, []string{held.ID}, time.Millisecond, nil)
	if err != nil || final[held.ID].State != sweep.JobDone {
		t.Fatalf("held job = %+v (%v), want it kept and done", final[held.ID], err)
	}
}
