package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"emerald/internal/exp"
)

// countingService is an in-memory Service: Submit runs SyntheticExec at
// once, so every job is terminal at submit, and it counts the submits
// and result fetches of each key.
type countingService struct {
	results map[string]*Result
	submits map[string]int
	fetches map[string]int
}

func newCountingService() *countingService {
	return &countingService{results: map[string]*Result{}, submits: map[string]int{}, fetches: map[string]int{}}
}

func (s *countingService) Submit(ctx context.Context, spec Spec) (Job, error) {
	key := spec.Key()
	s.submits[key]++
	res, err := SyntheticExec(0)(ctx, spec)
	if err != nil {
		return Job{}, err
	}
	s.results[key] = res
	return Job{ID: key[:12], Key: key, Spec: spec, State: JobDone}, nil
}

func (s *countingService) WaitAll(context.Context, []string, time.Duration, func(Job)) (map[string]Job, error) {
	return map[string]Job{}, nil
}

func (s *countingService) Result(_ context.Context, key string) (*Result, error) {
	s.fetches[key]++
	return s.results[key], nil
}

// TestRunFiguresIsThePlan: RunFigures submits and fetches every cell of
// the request's plan once, Figure 19's second batch included, and its
// tables are the bytes the plan builds from the same cell results in
// process.
func TestRunFiguresIsThePlan(t *testing.T) {
	req := FigureRequest{Figs: Figures, Scale: "smoke", Models: []int{1, 2}, Workloads: []int{3, 5}}
	svc := newCountingService()
	fs, err := RunFigures(context.Background(), svc, req, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Two matrices of 2 models x 4 configs, 2 sweeps, 2 x 4 policy runs.
	if want := 2*2*4 + 2 + 2*4; len(fs.Jobs) != want || len(svc.submits) != want {
		t.Errorf("%d jobs from %d distinct specs, want %d", len(fs.Jobs), len(svc.submits), want)
	}
	for key, n := range svc.submits {
		if n != 1 || svc.fetches[key] != 1 {
			t.Errorf("%s submitted %d and fetched %d times, want once each", svc.results[key].Spec, n, svc.fetches[key])
		}
	}

	opt, err := ScaleOptions(req.Scale)
	if err != nil {
		t.Fatal(err)
	}
	plan := exp.Plan{Figs: req.Figs, Models: req.Models, Workloads: req.Workloads, Opt: opt}
	res, err := plan.Run(func(cells []exp.Cell) ([]exp.CellResult, error) {
		out := make([]exp.CellResult, len(cells))
		for i, c := range cells {
			r, err := SyntheticExec(0)(context.Background(), cellSpec(req.Scale, c))
			if err != nil {
				return nil, err
			}
			if out[i], err = cellResult(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	for _, f := range fs.Figures {
		f.Write(&got)
	}
	for _, f := range res.Figures() {
		f.Write(&want)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("RunFigures printed\n%s\nthe plan in process\n%s", got.String(), want.String())
	}
}

// TestRunFiguresRejectsBeforeSubmitting: a figure the service cannot
// build, or an unknown config, fails the request before any job is
// submitted.
func TestRunFiguresRejectsBeforeSubmitting(t *testing.T) {
	for _, tc := range []struct {
		req  FigureRequest
		want string
	}{
		{FigureRequest{Figs: []string{"9", "10"}, Scale: "smoke"}, `figure "10" is not sweepable`},
		{FigureRequest{Figs: []string{"9"}, Scale: "smoke", Configs: []string{"BAS", "XYZ"}}, `unknown memory config "XYZ"`},
	} {
		svc := newCountingService()
		_, err := RunFigures(context.Background(), svc, tc.req, time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want %q", tc.req, err, tc.want)
		}
		if len(svc.submits) != 0 {
			t.Errorf("%+v: submitted %d job(s) before failing", tc.req, len(svc.submits))
		}
	}
}
