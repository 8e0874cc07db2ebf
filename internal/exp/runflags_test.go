package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"emerald/internal/emtrace"
	"emerald/internal/geom"
)

// TestRunFlagsSurface: the shared set is exactly the nine run flags,
// with the defaults emerald, memstudy and dfsl each used to declare.
func TestRunFlagsSurface(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	AddRunFlags(fs, "tool")
	want := map[string]string{
		"workers":      strconv.Itoa(runtime.NumCPU()),
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
	if err := rf.Apply(&opt); err != nil {
		t.Fatal(err)
	}
	if opt.WatchdogCycles != 500000 || !opt.Guard || !opt.EveryCycle {
		t.Errorf("flags not applied: %+v", opt)
	}
	if opt.Workers != 2 || opt.Trace == nil || opt.Stats == nil || opt.Probe != nil {
		t.Errorf("workers %d, trace %v, stats %v, probe %v", opt.Workers, opt.Trace, opt.Stats, opt.Probe)
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
// Apply leaves the harness half of Options at its zero value, bar the
// worker count, and Finish has nothing to write.
func TestRunFlagsDefaultsArmNothing(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	rf := AddRunFlags(fs, "tool")
	if err := fs.Parse([]string{"-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	var opt Options
	if err := rf.Apply(&opt); err != nil {
		t.Fatal(err)
	}
	if opt.Workers != 1 || opt.Trace != nil || opt.Stats != nil || opt.Probe != nil ||
		opt.Guard || opt.EveryCycle || opt.WatchdogCycles != 0 {
		t.Errorf("defaults armed something: %+v", opt)
	}
	var out bytes.Buffer
	if err := rf.Finish(&out); err != nil || out.Len() != 0 {
		t.Errorf("finish wrote %q, err %v", out.String(), err)
	}
}

// TestRunFlagsRejectWorkersBelowOne: -workers 0 or a negative count is
// a usage error that names the flag, not a quiet fallback to one at a
// time.
func TestRunFlagsRejectWorkersBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		rf := AddRunFlags(fs, "tool")
		if err := fs.Parse([]string{"-workers", v}); err != nil {
			t.Fatal(err)
		}
		var opt Options
		err := rf.Apply(&opt)
		if err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %s: Apply returned %v, want an error naming -workers", v, err)
		}
	}
}

// TestParseIDs: the -models/-workloads parser skips blanks, bounds every
// id, rejects a repeated one and names the bad one.
func TestParseIDs(t *testing.T) {
	if ids, err := ParseIDs(" 1, 3,,4 ", 1, 4, "model"); err != nil || len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 4 {
		t.Errorf("ParseIDs = %v, %v; want [1 3 4]", ids, err)
	}
	if ids, err := ParseIDs("", 1, 6, "workload"); err != nil || ids != nil {
		t.Errorf("empty list parsed to %v, %v", ids, err)
	}
	for _, bad := range []string{"0", "7", "x", "2,9"} {
		if _, err := ParseIDs(bad, 1, 6, "workload"); err == nil || !strings.Contains(err.Error(), "bad workload id") {
			t.Errorf("ParseIDs(%q) error %v, want a bad workload id", bad, err)
		}
	}
	if _, err := ParseIDs("3,2,3", 1, 6, "workload"); err == nil || err.Error() != "repeated workload id 3" {
		t.Errorf(`ParseIDs("3,2,3") error %v, want "repeated workload id 3"`, err)
	}
}
