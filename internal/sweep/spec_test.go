package sweep

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestKeyIsStableAndDiscriminating(t *testing.T) {
	a := Spec{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: 1333}
	if a.Key() != a.Key() {
		t.Fatal("key is not deterministic")
	}
	if len(a.Key()) != 64 || !ValidKey(a.Key()) {
		t.Fatalf("key %q is not a sha256 hex digest", a.Key())
	}
	variants := []Spec{
		{Kind: KindCS1, Scale: "smoke", Model: 3, Config: "BAS", Mbps: 1333},
		{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "DCB", Mbps: 1333},
		{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: 266},
		{Kind: KindCS1, Scale: "quick", Model: 2, Config: "BAS", Mbps: 1333},
		{Kind: KindCS2Sweep, Scale: "smoke", Workload: 2},
	}
	for _, v := range variants {
		if v.Key() == a.Key() {
			t.Fatalf("spec %s collides with %s", v, a)
		}
	}
}

// Every stored result is filed under its spec's key, so a change to how
// keys derive orphans every existing store. One key per kind is pinned
// here as recorded; it may only move with a deliberate store migration.
func TestSpecKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		key  string
	}{
		{Spec{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "DTB", Mbps: 1333},
			"d2d6b10dcff11451880ad755789a631073e7a7dc11a1b836ebc18f449852468a"},
		{Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 3},
			"7801575dc5812c5851ff7b26eb4b6b36f638102d496916702f02625c685bf967"},
		{Spec{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "SOPT", SOPT: 4},
			"560adb6e856d72a2ecf80d0bf6a2a98f70227cd3228538384e728b8a3fbc9a64"},
		{Spec{Kind: KindRegion, Scale: "smoke", Workload: 3, Frames: 8, Region: 3, Span: 1},
			"81aab83d69700ede4b9577ecfd932c61ba59a09a64b7c500e04273728f539fc5"},
	} {
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("%s: key %s, recorded %s", tc.spec, got, tc.key)
		}
	}
}

// Workers is accepted and ignored, so it must not affect the cache key.
func TestKeyIgnoresWorkers(t *testing.T) {
	base := Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 1}
	for _, w := range []int{1, 2, 8} {
		s := base
		s.Workers = w
		if s.Key() != base.Key() {
			t.Fatalf("workers=%d changed the key", w)
		}
	}
}

// A job spec cannot make the executor start goroutines: a huge Workers
// validates, runs the same simulation as Workers 0 under the same key,
// and leaves the goroutine count where it was.
func TestHugeWorkersIsIgnored(t *testing.T) {
	base := Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 3}
	huge := base
	huge.Workers = 1 << 30
	if err := huge.Validate(); err != nil {
		t.Fatal(err)
	}
	if huge.Key() != base.Key() {
		t.Fatal("workers changed the key")
	}
	exec := Executor(0, false)
	want, err := exec(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got, err := exec(context.Background(), huge)
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d before the job, %d after", before, after)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers %d result %+v, want %+v", huge.Workers, got, want)
	}
}

// Fields of the other case study must not leak into the key.
func TestKeyIgnoresIrrelevantFields(t *testing.T) {
	base := Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 1}
	noisy := base
	noisy.Model, noisy.Config, noisy.Mbps = 4, "HMC", 1333
	noisy.Policy, noisy.SOPT = "MLB", 3
	if noisy.Key() != base.Key() {
		t.Fatal("cs1/policy fields leaked into a cs2sweep key")
	}
	// ...but SOPT must count exactly when the policy is SOPT.
	p1 := Spec{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "SOPT", SOPT: 2}
	p2 := p1
	p2.SOPT = 3
	if p1.Key() == p2.Key() {
		t.Fatal("SOPT WT ignored for the SOPT policy")
	}
	m1 := Spec{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "MLB", SOPT: 2}
	m2 := m1
	m2.SOPT = 9
	if m1.Key() != m2.Key() {
		t.Fatal("SOPT WT leaked into a non-SOPT policy key")
	}
}

func TestValidate(t *testing.T) {
	good := []Spec{
		{Kind: KindCS1, Scale: "smoke", Model: 1, Config: "BAS", Mbps: 1333},
		{Kind: KindCS1, Scale: "paper", Model: 4, Config: "DTB", Mbps: 133},
		{Kind: KindCS2Sweep, Scale: "quick", Workload: 6},
		{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "MLB"},
		{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "SOPT", SOPT: 2},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", s, err)
		}
	}
	bad := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "nope", Scale: "smoke"}, "kind"},
		{Spec{Kind: KindCS1, Scale: "huge", Model: 1, Config: "BAS", Mbps: 1333}, "scale"},
		{Spec{Kind: KindCS1, Scale: "smoke", Model: 9, Config: "BAS", Mbps: 1333}, "model"},
		{Spec{Kind: KindCS1, Scale: "smoke", Model: 1, Config: "XYZ", Mbps: 1333}, "config"},
		{Spec{Kind: KindCS1, Scale: "smoke", Model: 1, Config: "BAS"}, "mbps"},
		{Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 7}, "workload"},
		{Spec{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "WAT"}, "policy"},
		{Spec{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "SOPT"}, "sopt"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: expected a validation error", tc.spec)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func BenchmarkSpecKey(b *testing.B) {
	s := Spec{Kind: KindCS1, Scale: "quick", Model: 2, Config: "DTB", Mbps: 1333, Workers: 4}
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

// TestValidateBuildsNothing: validating a spec is a catalogue lookup, so
// it costs the same for every model and workload. A valid spec allocates
// nothing; building the scene it names instead allocates 66 objects for
// M3 and 438 for W1.
func TestValidateBuildsNothing(t *testing.T) {
	const budget = 2
	for _, s := range []Spec{
		{Kind: KindCS1, Scale: "smoke", Model: 3, Config: "DTB", Mbps: 1333},
		{Kind: KindCS2Sweep, Scale: "quick", Workload: 1},
		{Kind: KindCS2Policy, Scale: "smoke", Workload: 6, Policy: "SOPT", SOPT: 2},
		{Kind: KindRegion, Scale: "smoke", Workload: 2, Frames: 8, Region: 3, Span: 2},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: Validate allocates %.0f objects, budget %d", s, allocs, budget)
		}
	}
}
