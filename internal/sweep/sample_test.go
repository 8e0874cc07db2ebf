package sweep

import (
	"context"
	"reflect"
	"testing"
	"time"

	"emerald/internal/exp"
	"emerald/internal/geom"
)

// The service's sampled path through HTTP and the real executor: the
// regions run as jobs, each re-recording its trace, must measure what
// the in-process pipeline measures from its one pass's checkpoints, and
// a second run must be served entirely from the cache.
func TestRunSampleMatchesInProcess(t *testing.T) {
	c := newTestService(t, RunnerConfig{Workers: 2})
	req := SampleRequest{Workload: geom.W3Cube, Frames: 8, K: 2, Span: 1, Scale: "smoke"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	opt, err := ScaleOptions(req.Scale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.RunSampled(req.Workload, req.Frames, req.K, req.Span, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run, wantHits := range []int{0, req.K} {
		got, err := RunSample(ctx, c, req, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.SampledResult, *want) {
			t.Errorf("run %d: service sampled %+v, in process %+v", run, got.SampledResult, *want)
		}
		if len(got.Jobs) != req.K || got.CacheHits() != wantHits {
			t.Errorf("run %d: %d/%d cache hits, want %d/%d", run, got.CacheHits(), len(got.Jobs), wantHits, req.K)
		}
	}
}
