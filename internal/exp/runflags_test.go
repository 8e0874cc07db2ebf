package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/par"
)

// TestRunFlagsSurface: the shared set is exactly the nine run flags,
// with the defaults emerald, memstudy and dfsl each used to declare.
func TestRunFlagsSurface(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	AddRunFlags(fs, "tool")
	want := map[string]string{
		"workers":      strconv.Itoa(par.DefaultWorkers()),
		"watchdog":     "0",
		"guard":        "false",
		"every-cycle":  "false",
		"progress":     "false",
		"trace-events": "",
		"trace-start":  "0",
		"trace-frames": "0",
		"stats-json":   "",
	}
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := want[f.Name]
		if !ok {
			t.Errorf("unexpected flag -%s", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("flag -%s not registered", name)
	}
}

// TestRunFlagsApplyFinish drives the flag set the way the CLIs do:
// parse, apply to Options, run something, finish — and reads back the
// files Finish reports.
func TestRunFlagsApplyFinish(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	statsFile := filepath.Join(dir, "stats.json")
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	rf := AddRunFlags(fs, "tool")
	if err := fs.Parse([]string{
		"-workers", "2", "-watchdog", "500000", "-guard", "-every-cycle",
		"-trace-events", traceFile, "-trace-frames", "1", "-stats-json", statsFile,
	}); err != nil {
		t.Fatal(err)
	}
	opt := tinyOptions()
	opt.CS2Width, opt.CS2Height = 32, 24
	rf.Apply(&opt)
	if opt.WatchdogCycles != 500000 || !opt.Guard || !opt.EveryCycle {
		t.Errorf("flags not applied: %+v", opt)
	}
	if opt.Pool.Size() != 2 || opt.Trace == nil || opt.Stats == nil || opt.Probe != nil {
		t.Errorf("pool %d, trace %v, stats %v, probe %v", opt.Pool.Size(), opt.Trace, opt.Stats, opt.Probe)
	}

	scene, err := geom.DFSLWorkload(geom.W3Cube)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCS2Renderer(scene, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RenderFrame(1, true); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := rf.Finish(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "wrote "+traceFile+" (") ||
		!strings.HasSuffix(lines[0], " dropped)") || lines[1] != "wrote "+statsFile {
		t.Errorf("finish reported %q", out.String())
	}
	tf, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := emtrace.ReadChromeJSON(tf)
	if err != nil || len(events) == 0 {
		t.Errorf("trace file: %d events, err %v", len(events), err)
	}
	raw, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(raw, &stats); err != nil || len(stats) == 0 {
		t.Errorf("stats file: %d keys, err %v", len(stats), err)
	}
}

// TestRunFlagsDefaultsArmNothing: with no observability flag set,
// Apply leaves the harness half of Options at its zero value (one
// worker is no pool) and Finish has nothing to write.
func TestRunFlagsDefaultsArmNothing(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	rf := AddRunFlags(fs, "tool")
	if err := fs.Parse([]string{"-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	var opt Options
	rf.Apply(&opt)
	if opt.Pool != nil || opt.Trace != nil || opt.Stats != nil || opt.Probe != nil ||
		opt.Guard || opt.EveryCycle || opt.WatchdogCycles != 0 {
		t.Errorf("defaults armed something: %+v", opt)
	}
	var out bytes.Buffer
	if err := rf.Finish(&out); err != nil || out.Len() != 0 {
		t.Errorf("finish wrote %q, err %v", out.String(), err)
	}
}
