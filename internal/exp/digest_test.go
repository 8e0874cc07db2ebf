package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"emerald/internal/stats"
)

// Pinned behaviour digests. The determinism tests hold the modes of
// time advancement to each other; these hold the simulator to what it
// computed when testdata/digests.json was recorded. A change that moves
// any counter, table cell or framebuffer byte fails here, even when it
// moves every mode alike and no table EXPERIMENTS.md prints.

var updateDigests = flag.Bool("update-digests", false,
	"re-record "+digestFile+" from this run; a re-record is a commit of its own, whose message says what moved and why")

const digestFile = "testdata/digests.json"

// pinned is one scenario's record: the SHA-256 of what it printed and
// its stats JSON (or of a state digest), and for the smoke scenarios
// every counter, so a failure names the counters that moved.
type pinned struct {
	SHA256   string           `json:"sha256"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// digests holds the loaded file, and under -update-digests what this
// run records into it; TestMain writes it back.
var digests struct {
	once sync.Once
	mu   sync.Mutex
	m    map[string]pinned
	err  error
	got  int
}

func TestMain(m *testing.M) {
	code := m.Run()
	if *updateDigests && code == 0 && digests.got > 0 {
		buf, err := json.MarshalIndent(digests.m, "", "  ")
		if err == nil {
			err = os.WriteFile(digestFile, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing", digestFile+":", err)
			code = 1
		} else {
			fmt.Printf("re-recorded %d digests in %s\n", digests.got, digestFile)
		}
	}
	os.Exit(code)
}

// checkPinned compares got with the record under key, or records it
// under -update-digests.
func checkPinned(t *testing.T, key string, got pinned) {
	t.Helper()
	digests.once.Do(func() {
		digests.m = map[string]pinned{}
		buf, err := os.ReadFile(digestFile)
		if err == nil {
			err = json.Unmarshal(buf, &digests.m)
		}
		if err != nil && !(*updateDigests && os.IsNotExist(err)) {
			digests.err = err
		}
	})
	if digests.err != nil {
		t.Fatalf("%s: %v", digestFile, digests.err)
	}
	digests.mu.Lock()
	defer digests.mu.Unlock()
	if *updateDigests {
		digests.m[key] = got
		digests.got++
		return
	}
	want, ok := digests.m[key]
	switch {
	case !ok:
		t.Errorf("%s has no digest %q; record it with -update-digests", digestFile, key)
	case want.SHA256 != got.SHA256:
		t.Errorf("%s: digest %s, recorded %s; behaviour moved%s\n(if it moved on purpose, re-record with -update-digests, in a commit of its own)",
			key, got.SHA256, want.SHA256, movedCounters(want.Counters, got.Counters))
	}
}

// movedCounters lists the counters whose value differs between the
// record and this run, "" when there are none to compare.
func movedCounters(want, got map[string]int64) string {
	if want == nil || got == nil {
		return ""
	}
	var moved []string
	for name, v := range got {
		if w, ok := want[name]; !ok || w != v {
			moved = append(moved, fmt.Sprintf("  %s: %d, recorded %d", name, v, w))
		}
	}
	for name, w := range want {
		if _, ok := got[name]; !ok {
			moved = append(moved, fmt.Sprintf("  %s: gone, recorded %d", name, w))
		}
	}
	if len(moved) == 0 {
		return "; every counter is as recorded (a table, distribution or timeline moved)"
	}
	sort.Strings(moved)
	return fmt.Sprintf("; %d counters moved:\n%s", len(moved), strings.Join(moved, "\n"))
}

// TestPinnedDigests renders the smoke-scale figures through the one
// experiment plan, the way memstudy and dfsl print them with
// -stats-json, and checks each scenario's tables, stats JSON and
// counters against testdata/digests.json. Case Study II is the subset
// that fits tier-1's time: Figures 17 and 18 for every workload, and
// Figure 19 for W3 alone (Figure 19 over every workload takes ~13 s of
// CPU at smoke). The race pass and the guarded pass skip it: the race
// detector pays ~20x per simulated cycle, and a guard that ticks every
// part and runs its probes every cycle took it from ~4 s to 96 s.
func TestPinnedDigests(t *testing.T) {
	if raceEnabled || guardEnv {
		t.Skip("renders smoke-scale figures, too slow under the race detector or a guard")
	}
	scenarios := []struct {
		name string
		plan Plan
	}{
		{"memstudy -fig all -scale smoke", Plan{Figs: CaseStudyI}},
		{"dfsl -fig 17,18 -scale smoke", Plan{Figs: []string{"17", "18"}}},
		{"dfsl -fig 19 -workloads 3 -scale smoke", Plan{Figs: []string{"19"}, Workloads: []int{3}}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			reg := stats.NewRegistry()
			sc.plan.Opt = Smoke()
			sc.plan.Opt.Stats = reg
			res, err := sc.plan.Simulate(RunCell)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			WriteFigures(h, res.Figures())
			var js bytes.Buffer
			if err := reg.DumpJSON(&js); err != nil {
				t.Fatal(err)
			}
			h.Write(js.Bytes())
			counters := map[string]int64{}
			reg.Each(func(name string, v int64) { counters[name] = v })
			if len(counters) == 0 {
				t.Fatal("the scenario registered no counters")
			}
			checkPinned(t, sc.name, pinned{SHA256: fmt.Sprintf("%x", h.Sum(nil)), Counters: counters})
		})
	}
}
