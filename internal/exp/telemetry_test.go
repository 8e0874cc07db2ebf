package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"emerald/internal/geom"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// telemetryDigest runs one Case Study I cell with or without a probe
// attached and hashes the observable end state, mirroring
// socStateDigest. The two digests must match: telemetry reads
// counters, it never perturbs the simulation.
func telemetryDigest(t *testing.T, probe *telemetry.Probe) string {
	t.Helper()
	opt := Quick()
	if testing.Short() {
		opt.Frames, opt.WarmupFrames = 1, 0
	}
	opt.Probe = probe
	reg := stats.NewRegistry()
	s, err := buildSoC(geom.M2Cube, BAS, opt.RegularMbps, opt, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(opt.BudgetCycles); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fb := make([]byte, 3*opt.Width*opt.Height*4)
	s.GPU.Mem.Read(0x8000_0000, fb)
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write(fb)
	fmt.Fprintf(h, "cycle=%d res=%+v", s.Cycle(), s.Results("digest"))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Attaching a probe must not change a single bit of observable state —
// the determinism contract that lets the sweep service arm telemetry
// on every job.
func TestTelemetryDigestInvariance(t *testing.T) {
	bare := telemetryDigest(t, nil)
	probe := telemetry.NewProbe()
	probed := telemetryDigest(t, probe)
	if bare != probed {
		t.Errorf("probe changed the state digest: bare %s != probed %s", bare, probed)
	}
	pr, ok := probe.Progress()
	if !ok {
		t.Fatal("probe never published during a full run")
	}
	// The run ends the instant the last frame retires, between stride
	// polls — so the final snapshot may predate that retirement; only
	// cycle and work are guaranteed non-zero.
	if pr.Cycle == 0 || pr.WorkSig == 0 {
		t.Errorf("final progress looks empty: %+v", pr)
	}
}

// A live healthy SoC run must serve an on-demand diagnostic bundle —
// the same snapshot a watchdog abort produces — without stopping.
func TestLiveDiagOnHealthyRun(t *testing.T) {
	opt := Smoke()
	probe := telemetry.NewProbe()
	opt.Probe = probe
	s, err := buildSoC(geom.M2Cube, BAS, opt.RegularMbps, opt, stats.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- s.RunCtx(context.Background(), opt.BudgetCycles) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d, err := probe.RequestDiag(ctx)
	if err != nil {
		t.Fatalf("RequestDiag on a live run: %v", err)
	}
	if len(d.Sections) == 0 {
		t.Fatal("live diag bundle has no sections")
	}
	var titles []string
	for _, sec := range d.Sections {
		titles = append(titles, sec.Title)
	}
	if d.Window != 0 {
		t.Errorf("on-demand diag window = %d, want 0 (not a stall)", d.Window)
	}
	found := map[string]bool{}
	for _, title := range titles {
		found[title] = true
	}
	for _, want := range []string{"soc", "gpu front end", "dram"} {
		if !found[want] {
			t.Errorf("diag sections %v missing %q", titles, want)
		}
	}

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	probe.Finish()
	if _, err := probe.RequestDiag(context.Background()); !errors.Is(err, telemetry.ErrFinished) {
		t.Fatalf("post-run RequestDiag err = %v, want ErrFinished", err)
	}
}

// The standalone-GPU harness path (dfsl): RunWTSweep with both a stats
// registry and a probe armed — the -stats-json/-progress combination —
// must fill both without disturbing the sweep.
func TestStandaloneProbeAndStats(t *testing.T) {
	opt := Smoke()
	opt.MaxWT = 2
	opt.Stats = stats.NewRegistry()
	opt.Probe = telemetry.NewProbe()
	times, err := RunWTSweep(geom.W3Cube, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != opt.MaxWT {
		t.Fatalf("got %d WT cells, want %d", len(times), opt.MaxWT)
	}
	for wt, c := range times {
		if c == 0 {
			t.Errorf("WT=%d reported zero cycles", wt+1)
		}
	}
	pr, ok := opt.Probe.Progress()
	if !ok {
		t.Fatal("probe never published during the WT sweep")
	}
	if pr.Cycle == 0 || pr.Components.GPUWork == 0 {
		t.Errorf("standalone progress looks empty: %+v", pr)
	}
	if pr.FramesTarget != 0 {
		t.Errorf("until-idle run advertises a frame target: %d", pr.FramesTarget)
	}
	var buf bytes.Buffer
	if err := opt.Stats.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 2 {
		t.Fatal("stats registry empty after an instrumented sweep")
	}
}
