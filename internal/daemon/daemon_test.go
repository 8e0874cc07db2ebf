package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emerald/internal/fleet"
	"emerald/internal/sweep"
)

// listen binds addr, riding out the moment a killed daemon's listener
// takes to let go of a fixed port.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	for i := 0; ; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if i >= 50 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// testNode is one daemon a test can kill and restart in place.
type testNode struct {
	cfg  Config
	addr string
	ln   net.Listener // reserved for the first start
	d    *Daemon
}

func (n *testNode) start(t *testing.T) {
	t.Helper()
	ln := n.ln
	if n.ln = nil; ln == nil {
		ln = listen(t, n.addr)
	}
	d, err := Start(n.cfg, ln)
	if err != nil {
		t.Fatal(err)
	}
	n.d = d
	t.Cleanup(d.Kill)
}

// startNodes brings up size daemons under dir: a single-node daemon
// for size 1, a static fleet otherwise. Stealing is off (the tests pin
// which node executes what); probes and repair run fast.
func startNodes(t *testing.T, dir string, size int, mkExec func(i int) sweep.Exec) ([]*testNode, []string) {
	t.Helper()
	nodes := make([]*testNode, size)
	urls := make([]string, size)
	for i := range nodes {
		ln := listen(t, "127.0.0.1:0")
		nodes[i] = &testNode{addr: ln.Addr().String(), ln: ln}
		urls[i] = "http://" + nodes[i].addr
	}
	for i, n := range nodes {
		n.cfg = Config{
			Cache:   filepath.Join(dir, fmt.Sprintf("n%d", i), "cache"),
			Journal: filepath.Join(dir, fmt.Sprintf("n%d", i), "journal.wal"),
			Runner:  sweep.RunnerConfig{Workers: 1, Exec: mkExec(i)},
		}
		if size > 1 {
			n.cfg.Fleet = fleet.Config{
				Self: urls[i], Peers: urls, Replicas: 2,
				ProbeInterval: 50 * time.Millisecond, ProbeFails: 1,
				StealInterval: time.Hour, AntiEntropyInterval: time.Second,
				Logf: t.Logf,
			}
		}
		n.start(t)
	}
	for _, u := range urls {
		waitFor(t, u+" to report ready", func() bool {
			resp, err := http.Get(u + "/healthz/ready")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	}
	return nodes, urls
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// figTable runs a sweep over svc and renders its tables.
func figTable(ctx context.Context, svc sweep.Service, req sweep.FigureRequest) ([]byte, *sweep.FigureSet, error) {
	fs, err := sweep.RunFigures(ctx, svc, req, 2*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	for _, f := range fs.Figures {
		f.Table.Write(&buf)
	}
	return buf.Bytes(), fs, nil
}

// The service's life story on the one assembly, on a single-node
// daemon and on a 3-node fleet with one member killed: a cold sweep
// misses everywhere, the warm rerun is all cache hits with the same
// bytes, a hard stop mid-sweep leaves the accepted-but-unfinished job
// in the journal, and a restart on the same cache + journal completes
// it — with the tables byte-identical to an uninterrupted run. (The
// shell smokes in check.sh used to hold these with kill -9 and awk.)
func TestColdWarmKillRestart(t *testing.T) {
	small := sweep.FigureRequest{Figs: []string{"9"}, Scale: "smoke",
		Models: []int{2}, Configs: []string{"BAS", "DCB"}}
	big := small
	big.Configs = []string{"BAS", "DCB", "DTB", "HMC"}
	opt, err := sweep.ScaleOptions("smoke")
	if err != nil {
		t.Fatal(err)
	}
	// The first cell only the big sweep has: whoever owns it is busy
	// with it when the kill lands.
	freshKey := sweep.Spec{Kind: sweep.KindCS1, Scale: "smoke", Model: 2,
		Config: "DTB", Mbps: opt.RegularMbps}.Key()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	plain := func(int) sweep.Exec { return sweep.SyntheticExec(0) }
	_, refURLs := startNodes(t, t.TempDir(), 1, plain)
	ref := &sweep.Client{Base: refURLs[0]}
	wantSmall, _, err := figTable(ctx, ref, small)
	if err != nil {
		t.Fatal(err)
	}
	wantBig, _, err := figTable(ctx, ref, big)
	if err != nil {
		t.Fatal(err)
	}

	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-node", size), func(t *testing.T) {
			// While node i is armed (i+1 stored), its executions block until
			// the daemon dies.
			var armed atomic.Int32
			nodes, urls := startNodes(t, t.TempDir(), size, func(i int) sweep.Exec {
				return func(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
					if armed.Load() == int32(i+1) {
						<-ctx.Done()
						return nil, ctx.Err()
					}
					return sweep.SyntheticExec(0)(ctx, spec)
				}
			})
			var svc sweep.Service = &sweep.Client{Base: urls[0]}
			vi := 0
			if size > 1 {
				fc, err := fleet.NewClient(urls, nil)
				if err != nil {
					t.Fatal(err)
				}
				svc = fc
				owner := nodes[0].d.Node.Ring().Owners(freshKey, 1)[0]
				for i, u := range urls {
					if u == owner {
						vi = i
					}
				}
			}
			victim := nodes[vi]

			cold, fs, err := figTable(ctx, svc, small)
			if err != nil || !bytes.Equal(cold, wantSmall) || fs.CacheHits() != 0 {
				t.Fatalf("cold sweep: err %v, %d cache hit(s), table\n%s\nwant\n%s", err, fs.CacheHits(), cold, wantSmall)
			}
			warm, fs, err := figTable(ctx, svc, small)
			if err != nil || !bytes.Equal(warm, wantSmall) || fs.CacheHits() != len(fs.Jobs) {
				t.Fatalf("warm sweep: err %v, %d/%d cache hits, table\n%s", err, fs.CacheHits(), len(fs.Jobs), warm)
			}

			// Hard stop mid-sweep, once the victim is executing.
			armed.Store(int32(vi + 1))
			type out struct {
				table []byte
				fs    *sweep.FigureSet
				err   error
			}
			sweepCtx, abandon := context.WithCancel(ctx)
			defer abandon()
			done := make(chan out, 1)
			go func() {
				table, fs, err := figTable(sweepCtx, svc, big)
				done <- out{table, fs, err}
			}()
			waitFor(t, "the victim to start a job", func() bool {
				return victim.d.Runner.Metrics().Inflight == 1
			})
			victim.d.Kill()
			armed.Store(0)
			if size == 1 {
				abandon() // the client dies with its only daemon
				if o := <-done; o.err == nil {
					t.Fatal("sweep against a killed single daemon reported success")
				}
			} else {
				// The fleet client relocates the dead member's jobs.
				o := <-done
				if o.err != nil || !bytes.Equal(o.table, wantBig) {
					t.Fatalf("fleet sweep across the kill: err %v, table\n%s\nwant\n%s", o.err, o.table, wantBig)
				}
				for _, j := range o.fs.Jobs {
					if j.State != sweep.JobDone {
						t.Fatalf("job %s (%s) = %s: lost to the kill", j.ID, j.Spec, j.State)
					}
				}
			}

			// Restart on the same cache + journal + address.
			victim.start(t)
			if rec := victim.d.Recovery; rec.Pending == 0 || rec.Requeued+rec.Cached != rec.Pending {
				t.Fatalf("restart recovery = %+v, want the killed job replayed from the journal", rec)
			}
			waitFor(t, "recovered jobs to finish", func() bool {
				for _, j := range victim.d.Runner.Jobs() {
					if j.Recovered && j.State != sweep.JobDone {
						return false
					}
				}
				return true
			})
			resumed, fs, err := figTable(ctx, svc, big)
			if err != nil || !bytes.Equal(resumed, wantBig) {
				t.Fatalf("post-restart sweep: err %v, table\n%s\nwant\n%s", err, resumed, wantBig)
			}
			for _, j := range fs.Jobs {
				if j.State != sweep.JobDone {
					t.Fatalf("post-restart job %s = %s", j.ID, j.State)
				}
			}
		})
	}
}

// The live surface of a real simulation through the assembly: a running
// job's progress.cycle advances, an on-demand diag bundle comes back
// non-empty, /metrics content-negotiates, and -pprof mounts the
// profiler index. The job is a paper-scale cell, which runs for many
// seconds, so it is still running when the checks end on any number of
// cores (a quick cell could finish before the first poll on one); Kill
// cancels it mid-run.
func TestLiveJobSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	ln := listen(t, "127.0.0.1:0")
	base := "http://" + ln.Addr().String()
	d, err := Start(Config{Cache: filepath.Join(dir, "cache"), Pprof: true,
		Runner: sweep.RunnerConfig{Workers: 1}}, ln)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if d.Node != nil {
		t.Fatal("a daemon without -peers or -join grew a fleet plane")
	}
	job, err := d.Runner.Submit(sweep.Spec{Kind: sweep.KindCS1, Scale: "paper", Model: 2, Config: "BAS", Mbps: 1333})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path, accept string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	cycle := func() uint64 {
		var j sweep.Job
		_, body := get("/jobs/"+job.ID, "")
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatal(err)
		}
		if j.Terminal() {
			t.Fatalf("job finished (%s %s) before the live checks ran", j.State, j.Error)
		}
		if j.Progress == nil {
			return 0
		}
		return j.Progress.Cycle
	}
	var first uint64
	waitFor(t, "the running job to publish progress", func() bool { first = cycle(); return first > 0 })
	if code, body := get("/jobs/"+job.ID+"/diag", ""); code != http.StatusOK || !strings.Contains(body, `"sections"`) {
		t.Fatalf("live diag = %d %s", code, body)
	}
	waitFor(t, "progress.cycle to advance", func() bool { return cycle() > first })
	if _, body := get("/metrics", "text/plain;version=0.0.4"); !strings.Contains(body, "# TYPE emerald_sweep_job_latency_ms histogram") {
		t.Fatalf("prometheus exposition missing from /metrics:\n%s", body)
	}
	if _, body := get("/metrics", ""); !strings.Contains(body, `"queue_depth"`) {
		t.Fatalf("default JSON /metrics shape regressed:\n%s", body)
	}
	if code, _ := get("/debug/pprof/", ""); code != http.StatusOK {
		t.Fatalf("pprof index = %d with Pprof set", code)
	}
}
