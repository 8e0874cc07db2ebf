package sweep

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/stats"
)

// newTestService spins up a full service (store, runner with the real
// executor, HTTP server) and a client pointed at it.
func newTestService(t *testing.T, cfg RunnerConfig) *Client {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(st, cfg)
	ts := httptest.NewServer(NewServer(r, st).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx) //nolint:errcheck // best-effort cleanup
	})
	return &Client{Base: ts.URL}
}

func renderTable(tab *stats.Table) string {
	var buf bytes.Buffer
	tab.Write(&buf)
	return buf.String()
}

// The full loop: a 2-point sweep over HTTP runs cold, a resubmission is
// served entirely from the cache, and both aggregate to byte-identical
// tables — which also match the sequential code path the CLIs use.
func TestEndToEndSweepOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	c := newTestService(t, RunnerConfig{Workers: 2})
	req := FigureRequest{
		Figs:    []string{"9"},
		Scale:   "smoke",
		Models:  []int{geom.M2Cube},
		Configs: []string{"BAS", "DCB"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cold, err := RunFigures(ctx, c, req, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Jobs) != 2 || cold.CacheHits() != 0 {
		t.Fatalf("cold sweep: %d jobs, %d cache hits, want 2/0", len(cold.Jobs), cold.CacheHits())
	}
	if len(cold.Figures) != 1 || cold.Figures[0].Name != "9" {
		t.Fatalf("cold sweep figures = %+v", cold.Figures)
	}

	warm, err := RunFigures(ctx, c, req, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits() != len(warm.Jobs) || len(warm.Jobs) != 2 {
		t.Fatalf("warm sweep: %d/%d cache hits, want 2/2", warm.CacheHits(), len(warm.Jobs))
	}
	coldTab, warmTab := renderTable(cold.Figures[0].Table), renderTable(warm.Figures[0].Table)
	if coldTab != warmTab {
		t.Fatalf("cached sweep changed the table:\ncold:\n%s\nwarm:\n%s", coldTab, warmTab)
	}

	// Parity with the sequential CLI code path: the same cells computed
	// in-process must produce the exact same bytes.
	opt := exp.Smoke()
	direct := exp.CS1Results{geom.M2Cube: {}}
	for _, cfg := range []exp.MemConfig{exp.BAS, exp.DCB} {
		r, err := exp.RunCaseStudyI(geom.M2Cube, cfg, opt.RegularMbps, opt)
		if err != nil {
			t.Fatal(err)
		}
		direct[geom.M2Cube][cfg] = r
	}
	if seqTab := renderTable(exp.Fig09Table(direct)); seqTab != coldTab {
		t.Fatalf("sweep table diverges from the sequential path:\nsweep:\n%s\nsequential:\n%s", coldTab, seqTab)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 2 || m.CacheMisses != 2 || m.JobsDone != 2 {
		t.Fatalf("metrics = %+v, want 2 hits / 2 misses / 2 done", m)
	}
	if m.LatencyMS.Count != 2 || m.LatencyMS.Max <= 0 {
		t.Fatalf("latency summary = %+v, want 2 samples", m.LatencyMS)
	}
}

// The error surface: bad specs, unknown jobs, malformed and missing
// result keys.
func TestServerErrorPaths(t *testing.T) {
	c := newTestService(t, RunnerConfig{Workers: 1, Exec: okExec})

	ctx := context.Background()
	if _, err := c.Submit(ctx, Spec{Kind: "nope", Scale: "smoke"}); err == nil {
		t.Fatal("submit accepted a bad spec")
	}
	if _, err := c.Job(ctx, "j999"); err == nil {
		t.Fatal("got a job that was never submitted")
	}
	if _, err := c.Result(ctx, "zzzz"); err == nil {
		t.Fatal("malformed result key accepted")
	}
	if _, err := c.Result(ctx, wlSpec(1).Key()); err == nil {
		t.Fatal("got a result that was never stored")
	}

	// Unknown fields in the spec body are rejected, catching client
	// typos before they silently select the wrong simulation.
	resp, err := http.Post(c.Base+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"kind":"cs2sweep","scale":"smoke","workload":1,"modle":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// The profiler endpoints are opt-in (emeraldd -pprof): absent from
	// the route table unless Pprof is set.
	for _, tc := range []struct {
		pprof bool
		want  int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		api := NewServer(nil, nil)
		api.Pprof = tc.pprof
		ts := httptest.NewServer(api.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET /debug/pprof/ with Pprof=%v = %d, want %d", tc.pprof, resp.StatusCode, tc.want)
		}
	}
}

// A submitted spec round-trips the service and lands in /jobs.
func TestServerSubmitAndList(t *testing.T) {
	c := newTestService(t, RunnerConfig{Workers: 1, Exec: okExec})
	ctx := context.Background()
	job, err := c.Submit(ctx, wlSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Key != wlSpec(2).Key() {
		t.Fatalf("submitted job = %+v", job)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Terminal() {
			if j.State != JobDone {
				t.Fatalf("job = %+v, want done", j)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := c.Result(ctx, job.Key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Kind != KindCS2Sweep || len(res.Cycles) == 0 {
		t.Fatalf("stored result = %+v", res)
	}
}
