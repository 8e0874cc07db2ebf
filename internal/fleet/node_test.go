package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emerald/internal/soc"
	"emerald/internal/sweep"
	"emerald/internal/telemetry"
)

// fakeResult is a deterministic, spec-derived CS1 result: every node
// computing it produces byte-identical payloads, mirroring the real
// executor's determinism contract.
func fakeResult(spec sweep.Spec) (*sweep.Result, error) {
	c := spec.Canonical()
	return &sweep.Result{Spec: c, CS1: &soc.Results{
		Config:          c.Config,
		Model:           fmt.Sprintf("M%d", c.Model),
		MeanGPUCycles:   float64(100*c.Model + c.Mbps),
		MeanFrameCycles: float64(200*c.Model + c.Mbps),
		DisplayServed:   int64(c.Mbps),
		FramesShown:     60,
		RowHitRate:      0.5,
		BytesPerAct:     64,
	}}, nil
}

func fastExec(_ context.Context, spec sweep.Spec) (*sweep.Result, error) {
	return fakeResult(spec)
}

// cs1Spec returns a valid cs1 spec; distinct mbps values give distinct
// result keys.
func cs1Spec(mbps int) sweep.Spec {
	return sweep.Spec{Kind: sweep.KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: mbps}
}

// tnode is one in-process fleet member: store, runner, fleet node and
// HTTP surface on a real listener (fleet traffic goes over real HTTP).
type tnode struct {
	url    string
	store  *sweep.Store
	runner *sweep.Runner
	node   *Node
	srv    *http.Server
}

// kill emulates kill -9: the HTTP surface vanishes first (connection
// refused for peers and clients), then the runner is aborted without a
// drain.
func (n *tnode) kill() {
	n.srv.Close() //nolint:errcheck
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n.runner.Shutdown(ctx) //nolint:errcheck // forced
}

// startCluster brings up size fleet members with manual (test-driven)
// probe/steal/anti-entropy stepping: background loops are not started,
// so tests stay deterministic.
func startCluster(t *testing.T, size int, mkExec func(i int) sweep.Exec, mut func(i int, cfg *Config)) []*tnode {
	t.Helper()
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*tnode, size)
	for i := range nodes {
		st, err := sweep.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: urls[i], Peers: urls, Replicas: 2,
			ProbeInterval: time.Hour, StealInterval: time.Hour,
			AntiEntropyInterval: time.Hour,
			// Tests step probes by hand, one round per expected
			// transition; the debounce default gets its own test.
			ProbeFails: 1,
			Logf:       t.Logf,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		nd, err := New(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		rc := sweep.RunnerConfig{Workers: 1, Exec: fastExec, OnStored: nd.OnStored}
		if mkExec != nil {
			rc.Exec = mkExec(i)
		}
		r := sweep.NewRunner(st, rc)
		nd.SetRunner(r)
		api := sweep.NewServer(r, st)
		api.Fleet = nd
		srv := &http.Server{Handler: api.Handler()}
		go srv.Serve(lns[i]) //nolint:errcheck
		nodes[i] = &tnode{url: urls[i], store: st, runner: r, node: nd, srv: srv}
	}
	// Stop every node's pushes before any server goes, then let each
	// server finish the handlers still writing a replica: Close alone
	// does not wait for them, and t.TempDir's removal would race them.
	t.Cleanup(func() {
		for _, n := range nodes {
			n.node.Close()
		}
		for _, n := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if n.srv.Shutdown(ctx) != nil {
				n.srv.Close() //nolint:errcheck
			}
			cancel()
		}
		for _, n := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			n.runner.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
			cancel()
		}
	})
	return nodes
}

func probeAll(t *testing.T, nodes []*tnode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, n := range nodes {
		n.node.ProbeOnce(ctx)
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitTerminal(t *testing.T, r *sweep.Runner, id string) sweep.Job {
	t.Helper()
	var j sweep.Job
	waitFor(t, "job "+id, func() bool {
		var ok bool
		j, ok = r.Job(id)
		return ok && j.Terminal()
	})
	return j
}

// holds reports whether the node's store has a verified copy of key.
func (n *tnode) holds(key string) bool {
	_, ok, err := n.store.Get(key)
	return err == nil && ok
}

// An idle node steals queued specs from a busy peer over the real
// /fleet/steal endpoint, executes them, and replicates the results
// back — so the victim's still-queued jobs complete as cache hits and
// nothing executes twice.
func TestStealMovesQueuedWorkAndReplicatesBack(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	nodes := startCluster(t, 2, func(i int) sweep.Exec {
		if i != 0 {
			return fastExec
		}
		return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return fakeResult(spec)
		}
	}, nil)
	probeAll(t, nodes)

	// Three jobs on node 0 (1 worker): one runs gated, two sit queued.
	var ids []string
	for i := 1; i <= 3; i++ {
		j, err := nodes[0].runner.Submit(cs1Spec(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitFor(t, "worker to claim the gated job", func() bool {
		return nodes[0].runner.Metrics().Inflight == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stolen, err := nodes[1].node.StealOnce(ctx)
	if err != nil || stolen != 2 {
		t.Fatalf("StealOnce = %d, %v — want the 2 queued specs", stolen, err)
	}
	if got := nodes[1].node.stolenIn.Load(); got != 2 {
		t.Fatalf("stolenIn counter = %d, want 2", got)
	}

	// The thief executes and replicates back; wait for both blobs to
	// land on the victim BEFORE opening the gate, so the victim's
	// workers must complete them as cache hits.
	waitFor(t, "stolen results to replicate back to the victim", func() bool {
		return nodes[0].holds(cs1Spec(2).Key()) && nodes[0].holds(cs1Spec(3).Key())
	})
	openGate()

	for i, id := range ids {
		j := waitTerminal(t, nodes[0].runner, id)
		if j.State != sweep.JobDone {
			t.Fatalf("job %s = %+v, want done", id, j)
		}
		if i > 0 && !j.Cached {
			t.Fatalf("stolen job %s re-executed locally (want cache hit from the thief's replica)", id)
		}
	}
	if m := nodes[0].runner.Metrics(); m.JobsStolen != 2 {
		t.Fatalf("victim JobsStolen = %d, want 2", m.JobsStolen)
	}
	// Byte-identical across both stores.
	for i := 2; i <= 3; i++ {
		key := cs1Spec(i).Key()
		a, _, _ := nodes[0].store.Get(key)
		b, _, _ := nodes[1].store.Get(key)
		if !bytes.Equal(a, b) {
			t.Fatalf("replicated blob %d differs between victim and thief", i)
		}
	}
}

// findSpecOwnedBy returns a spec whose primary owner is nodes[idx].
func findSpecOwnedBy(t *testing.T, ring *Ring, urls []string, idx int) sweep.Spec {
	t.Helper()
	for mbps := 1; mbps < 10000; mbps++ {
		spec := cs1Spec(mbps)
		if ring.Owners(spec.Key(), 1)[0] == urls[idx] {
			return spec
		}
	}
	t.Fatal("no spec found with the requested primary")
	return sweep.Spec{}
}

// A completed result is replicated to R=2 ring owners, byte-identical,
// and nowhere else.
func TestReplicationReachesOwners(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	ring := nodes[0].node.Ring()
	spec := findSpecOwnedBy(t, ring, urls, 0)
	key := spec.Key()
	owners := ring.Owners(key, 2)

	j, err := nodes[0].runner.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, nodes[0].runner, j.ID)
	waitFor(t, "replication to the co-owner", func() bool {
		for _, n := range nodes {
			if n.url == owners[1] && n.holds(key) {
				return true
			}
		}
		return false
	})
	var payloads [][]byte
	for _, n := range nodes {
		isOwner := n.url == owners[0] || n.url == owners[1]
		if n.holds(key) != isOwner {
			t.Fatalf("node %s holds=%v, want %v (owners %v)", n.url, n.holds(key), isOwner, owners)
		}
		if isOwner {
			p, _, _ := n.store.Get(key)
			payloads = append(payloads, p)
		}
	}
	if len(payloads) != 2 || !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("replicas are not byte-identical")
	}
}

// replicatedPair runs one job on its primary owner and waits until
// both owners hold the blob. Returns the spec, its key, and the two
// owner tnodes.
func replicatedPair(t *testing.T, nodes []*tnode) (sweep.Spec, string, *tnode, *tnode) {
	t.Helper()
	probeAll(t, nodes)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	ring := nodes[0].node.Ring()
	spec := findSpecOwnedBy(t, ring, urls, 0)
	key := spec.Key()
	owners := ring.Owners(key, 2)
	byURL := make(map[string]*tnode)
	for _, n := range nodes {
		byURL[n.url] = n
	}
	primary, second := byURL[owners[0]], byURL[owners[1]]
	j, err := primary.runner.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, primary.runner, j.ID)
	waitFor(t, "initial replication", func() bool { return second.holds(key) })
	return spec, key, primary, second
}

// corrupt flips one byte in the middle of a stored blob.
func corrupt(t *testing.T, st *sweep.Store, key string) {
	t.Helper()
	path := filepath.Join(st.Dir(), key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Anti-entropy heals a bit-flipped replica from a peer, restoring the
// exact original bytes — the store's integrity footer is the detector.
func TestAntiEntropyHealsBitFlippedReplica(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	_, key, primary, second := replicatedPair(t, nodes)
	want, _, _ := primary.store.Get(key)

	corrupt(t, second.store, key)
	if second.holds(key) {
		t.Fatal("corrupt blob still verifies — test is broken")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := second.node.AntiEntropy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptHealed != 1 {
		t.Fatalf("repair stats = %+v, want exactly 1 corrupt blob healed", st)
	}
	got, ok, err := second.store.Get(key)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatal("healed blob is not byte-identical to the surviving replica")
	}
}

// Anti-entropy pulls a blob this node owns but lost entirely.
func TestAntiEntropyPullsMissingOwnedBlob(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	_, key, primary, second := replicatedPair(t, nodes)
	want, _, _ := primary.store.Get(key)

	if err := second.store.Delete(key); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := second.node.AntiEntropy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pulled != 1 {
		t.Fatalf("repair stats = %+v, want exactly 1 pull", st)
	}
	if got, ok, _ := second.store.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatal("pulled blob is not byte-identical")
	}
}

// Anti-entropy on the surviving owner pushes to a co-owner that lost
// its copy.
func TestAntiEntropyPushesToMissingCoOwner(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	_, key, primary, second := replicatedPair(t, nodes)
	want, _, _ := primary.store.Get(key)

	if err := second.store.Delete(key); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := primary.node.AntiEntropy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pushed != 1 {
		t.Fatalf("repair stats = %+v, want exactly 1 push", st)
	}
	if got, ok, _ := second.store.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatal("pushed blob is not byte-identical")
	}
}

// The replication endpoint must reject a payload that does not belong
// under its claimed key — a confused peer cannot poison the store.
func TestReplicateRejectsMismatchedKey(t *testing.T) {
	nodes := startCluster(t, 1, nil, nil)
	res, err := fakeResult(cs1Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, '\n')

	put := func(key string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, nodes[0].url+"/fleet/results/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	wrongKey := cs1Spec(2).Key()
	if code := put(wrongKey, payload); code != http.StatusBadRequest {
		t.Fatalf("mislabeled payload accepted with %d", code)
	}
	if nodes[0].holds(wrongKey) {
		t.Fatal("mislabeled payload reached the store")
	}
	if code := put(cs1Spec(1).Key(), []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("garbage payload accepted with %d", code)
	}
	if code := put(cs1Spec(1).Key(), payload); code != http.StatusNoContent {
		t.Fatalf("valid payload rejected with %d", code)
	}
	if !nodes[0].holds(cs1Spec(1).Key()) {
		t.Fatal("valid payload did not land")
	}
}

// Readiness reports 503 until the first peer-probe round completes —
// placement before that would treat every peer as dead.
func TestReadinessGatesOnFleetWarmup(t *testing.T) {
	nodes := startCluster(t, 2, nil, nil)
	resp, err := http.Get(nodes[0].url + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready before first probe round: %d", resp.StatusCode)
	}
	probeAll(t, nodes)
	resp, err = http.Get(nodes[0].url + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("not ready after probe round: %d", resp.StatusCode)
	}
}

// /fleet/info and the Prometheus scrape reflect peer health, and the
// fleet metric families are well-formed exposition text.
func TestFleetInfoAndPromReflectPeerDeath(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil)
	probeAll(t, nodes)
	// Stretch the last successful probe's RTT far past anything a
	// refused connection takes to fail, so the check below can tell
	// "kept" from "overwritten by the failing probe".
	const lastGoodRTT = time.Hour
	nodes[0].node.mu.Lock()
	nodes[0].node.peers[nodes[2].url].rtt = lastGoodRTT
	nodes[0].node.mu.Unlock()
	nodes[2].kill()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nodes[0].node.ProbeOnce(ctx)

	var info Info
	resp, err := http.Get(nodes[0].url + "/fleet/info")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !info.Ready || info.Self != nodes[0].url || len(info.Peers) != 3 {
		t.Fatalf("info = %+v", info)
	}
	for _, p := range info.Peers {
		wantAlive := p.URL != nodes[2].url
		if p.Alive != wantAlive {
			t.Fatalf("peer %s alive=%v, want %v", p.URL, p.Alive, wantAlive)
		}
		if (p.URL == nodes[0].url) != p.Self {
			t.Fatalf("peer %s self flag wrong", p.URL)
		}
		// A failed probe reports why it failed, not how long failing
		// took: the RTT stays that of the last successful probe.
		if p.URL == nodes[2].url && (p.LastErr == "" || p.RTTMS != float64(lastGoodRTT/time.Millisecond)) {
			t.Fatalf("dead peer reports rtt %v ms, last_error %q; want the last good rtt and an error", p.RTTMS, p.LastErr)
		}
	}

	// The fleet gauges ride the node's ordinary metrics scrape.
	req, err := http.NewRequest(http.MethodGet, nodes[0].url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	text := buf.String()
	if !strings.Contains(text, `emerald_fleet_peer_up{peer="`+nodes[2].url+`"} 0`) {
		t.Fatalf("scrape does not report the dead peer:\n%s", text)
	}
	if !strings.Contains(text, `emerald_fleet_peer_up{peer="`+nodes[0].url+`"} 1`) {
		t.Fatal("scrape does not report self up")
	}
	if want := fmt.Sprintf(`emerald_fleet_peer_rtt_seconds{peer="%s"} %v`, nodes[2].url, lastGoodRTT.Seconds()); !strings.Contains(text, want) {
		t.Fatalf("scrape does not keep the dead peer's last good rtt (%s):\n%s", want, text)
	}
	if err := telemetry.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("fleet scrape is not valid exposition text: %v", err)
	}
}

// The one replication loop, against a peer that counts the PUTs it
// receives and refuses the first failFirst of them: an owner known to
// hold the blob is not pushed to, a steal victim that is also an owner
// is pushed once, an unreachable owner is reported as failed — and
// only handoff comes back for it; OnStored is fire and forget.
func TestReplicate(t *testing.T) {
	res, err := fakeResult(cs1Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	key := cs1Spec(1).Key()
	const never = 1 << 30
	type outcome struct {
		pushed int
		failed []string
	}
	for _, tc := range []struct {
		name      string
		failFirst int
		run       func(ctx context.Context, n *Node, payload []byte, peer string) outcome
		wantHits  int64
		want      outcome // failed holds "peer" for the peer's URL
		handedOff int64
	}{
		{"owner already holds it: no push", 0,
			func(ctx context.Context, n *Node, payload []byte, _ string) outcome {
				pushed, failed := n.replicate(ctx, n.Ring(), key, payload, "", func(string) bool { return true })
				return outcome{pushed, failed}
			}, 0, outcome{}, 0},
		{"owner missing it: one push", 0,
			func(ctx context.Context, n *Node, payload []byte, _ string) outcome {
				pushed, failed := n.replicate(ctx, n.Ring(), key, payload, "", nil)
				return outcome{pushed, failed}
			}, 1, outcome{pushed: 1}, 0},
		{"steal victim that is also an owner: pushed once", 0,
			func(ctx context.Context, n *Node, _ []byte, peer string) outcome {
				pushed, failed := n.replicate(ctx, n.Ring(), key, nil, peer, nil) // nil payload: read from the store
				return outcome{pushed, failed}
			}, 1, outcome{pushed: 1}, 0},
		{"owner down: reported failed", never,
			func(ctx context.Context, n *Node, payload []byte, _ string) outcome {
				pushed, failed := n.replicate(ctx, n.Ring(), key, payload, "", nil)
				return outcome{pushed, failed}
			}, 1, outcome{failed: []string{"peer"}}, 0},
		{"OnStored does not retry a failed push", never,
			func(_ context.Context, n *Node, payload []byte, _ string) outcome {
				n.OnStored(key, payload)
				n.Close() // waits for the background push
				return outcome{}
			}, 1, outcome{}, 0},
		{"handoff retries until the owner takes it", 2,
			func(ctx context.Context, n *Node, _ []byte, _ string) outcome {
				n.handoff(ctx, n.Ring())
				return outcome{}
			}, 3, outcome{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPut || r.URL.Path != "/fleet/results/"+key {
					http.NotFound(w, r)
					return
				}
				if hits.Add(1) <= int64(tc.failFirst) {
					http.Error(w, "down", http.StatusServiceUnavailable)
					return
				}
				w.WriteHeader(http.StatusNoContent)
			}))
			defer peer.Close()
			st, err := sweep.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			payload, err := st.Put(key, res)
			if err != nil {
				t.Fatal(err)
			}
			self := "http://127.0.0.1:1" // never dialled: a node does not push to itself
			n, err := New(Config{Self: self, Peers: []string{self, peer.URL}, Logf: t.Logf}, st)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			got := tc.run(ctx, n, payload, peer.URL)
			for i, f := range got.failed {
				if f == peer.URL {
					got.failed[i] = "peer"
				}
			}
			if got.pushed != tc.want.pushed || fmt.Sprint(got.failed) != fmt.Sprint(tc.want.failed) {
				t.Fatalf("replicate = %+v, want %+v", got, tc.want)
			}
			if hits.Load() != tc.wantHits {
				t.Fatalf("the peer saw %d PUT(s), want %d", hits.Load(), tc.wantHits)
			}
			if got := n.handoffPushed.Load(); got != tc.handedOff {
				t.Fatalf("handoffPushed = %d, want %d", got, tc.handedOff)
			}
		})
	}
}

// A blob the store fails to read (its file replaced by a directory) is
// not a blob that is gone: replicate reports the owner as missed, so
// the leave handoff keeps the key due, retries it and logs that it gave
// up, instead of dropping it silently after one attempt.
func TestHandoffKeepsUnreadableBlobDue(t *testing.T) {
	res, err := fakeResult(cs1Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	key := cs1Spec(1).Key()
	var puts atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()
	dir := t.TempDir()
	st, err := sweep.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, key+".json")
	if err := os.Remove(blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blob, 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	self := "http://127.0.0.1:1" // never dialled: a node does not push to itself
	n, err := New(Config{Self: self, Peers: []string{self, peer.URL}, Logf: logf}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if pushed, failed := n.replicate(ctx, n.Ring(), key, nil, "", nil); pushed != 0 || fmt.Sprint(failed) != fmt.Sprint([]string{peer.URL}) {
		t.Fatalf("replicate = %d pushed, missed %v; want 0 pushed, missed [%s]", pushed, failed, peer.URL)
	}
	n.handoff(ctx, n.Ring())
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(logs, "fleet: leave handoff gave up on 1 blob(s)") {
		t.Fatalf("handoff did not give up on the unreadable blob; logs:\n%s", strings.Join(logs, "\n"))
	}
	if puts.Load() != 0 {
		t.Fatalf("the peer saw %d PUT(s) of a blob nobody could read", puts.Load())
	}
}

// A peer's key list is not trusted to hold only result keys. One that
// advertises a one-byte key, and serves a body for it, must neither
// crash the anti-entropy sweep (whose log lines abbreviate keys to 12
// bytes) nor get anything into the store.
func TestAntiEntropyIgnoresMalformedPeerKeys(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fleet/info":
			w.Write([]byte("alive")) //nolint:errcheck // alive, not gossiping
		case "/fleet/keys":
			json.NewEncoder(w).Encode([]string{"x"}) //nolint:errcheck
		case "/results/x":
			w.Write([]byte("not a result")) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()
	st, err := sweep.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	self := "http://127.0.0.1:1" // never dialled
	n, err := New(Config{Self: self, Peers: []string{self, peer.URL}, Logf: t.Logf}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.ProbeOnce(ctx)
	if !n.alive(peer.URL) {
		t.Fatal("the fake peer did not pass its probe")
	}
	rs, err := n.AntiEntropy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := st.Keys(); rs.Pulled != 0 || len(keys) != 0 {
		t.Fatalf("anti-entropy pulled %d, store holds %v; want nothing", rs.Pulled, keys)
	}
}
