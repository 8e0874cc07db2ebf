package sweep

import (
	"context"
	"fmt"
	"slices"
	"time"

	"emerald/internal/exp"
)

// Service is the submit/poll/fetch surface RunFigures drives. It is
// implemented by Client (one emeraldd) and by fleet.Client (a sweep
// fanned across a fleet of nodes with consistent-hash placement and
// node-death failover); the aggregation is identical either way, which
// is what keeps fleet tables byte-identical to single-node tables.
type Service interface {
	Submit(ctx context.Context, spec Spec) (Job, error)
	WaitAll(ctx context.Context, ids []string, poll time.Duration, onDone func(Job)) (map[string]Job, error)
	Result(ctx context.Context, key string) (*Result, error)
}

// Figures lists the figures the service can regenerate, in print
// order: those whose cells are job kinds. Figures 10, 14 and 18 read
// bandwidth timelines or one system's counters, which a Result does not
// carry, and stay on memstudy and dfsl.
var Figures = []string{"9", "11", "12", "13", "17", "19"}

// FigureRequest describes a client-side sweep: which figures to
// regenerate, at which scale, over which slices of the paper's config
// matrices (Tables 6/8). It is an exp.Plan in the service's terms.
type FigureRequest struct {
	// Figs lists figure names from Figures, in print order.
	Figs []string
	// Scale is the experiment scale: smoke|quick|paper.
	Scale string
	// Models restricts Case Study I models (default all 1..4).
	Models []int
	// Configs restricts Case Study I memory configs (default all).
	Configs []string
	// Workloads restricts Case Study II workloads (default all 1..6).
	Workloads []int
	// Workers is accepted and ignored, like Spec.Workers.
	Workers int
	// Notify, when non-nil, is invoked once per job as it reaches a
	// terminal state (including jobs already terminal at submit — cache
	// hits), streaming partial sweep completion while the matrix is
	// still in flight. Calls arrive from the polling goroutine in
	// completion order.
	Notify func(Job)
}

// Figure is one aggregated figure; the service's are all tables.
type Figure = exp.Figure

// FigureSet is the outcome of a client-side sweep: the aggregated
// tables (in request order) and the jobs submitted.
type FigureSet struct {
	Figures []Figure
	submitted
}

// submitted lists every unique job a sweep submitted, in submission
// order, for cache accounting.
type submitted struct {
	Jobs []Job
}

// CacheHits counts jobs served from the content-addressed store.
func (s submitted) CacheHits() int {
	n := 0
	for _, j := range s.Jobs {
		if j.Cached {
			n++
		}
	}
	return n
}

// submitter runs batches of exp cells as jobs at one scale. It
// deduplicates specs by result key while preserving submission order,
// so overlapping figures (9 and 11 share the regular-load matrix) cost
// one job per unique simulation point, and fetches each key's result
// once however many batches follow.
type submitter struct {
	submitted
	c       Service
	scale   string
	poll    time.Duration
	seen    map[string]Job
	results map[string]*Result
	notify  func(Job)
}

func newSubmitter(c Service, scale string, poll time.Duration, notify func(Job)) *submitter {
	return &submitter{c: c, scale: scale, poll: poll, seen: make(map[string]Job),
		results: make(map[string]*Result), notify: notify}
}

// batch is an exp batch (exp.Plan.Run's, exp.RunSampledCells'): it
// submits the cells as jobs, waits for them all and returns their
// results by index.
func (s *submitter) batch(ctx context.Context) func([]exp.Cell) ([]exp.CellResult, error) {
	return func(cells []exp.Cell) ([]exp.CellResult, error) {
		keys := make([]string, len(cells))
		for i, cell := range cells {
			spec := cellSpec(s.scale, cell)
			if err := s.submit(ctx, spec); err != nil {
				return nil, err
			}
			keys[i] = spec.Key()
		}
		results, err := s.wait(ctx)
		if err != nil {
			return nil, err
		}
		out := make([]exp.CellResult, len(cells))
		for i, key := range keys {
			if out[i], err = cellResult(results[key]); err != nil {
				return nil, fmt.Errorf("%w for %s", err, key)
			}
		}
		return out, nil
	}
}

func (s *submitter) submit(ctx context.Context, spec Spec) error {
	if _, ok := s.seen[spec.Key()]; ok {
		return nil
	}
	job, err := s.c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit %s: %w", spec, err)
	}
	s.seen[spec.Key()] = job
	s.Jobs = append(s.Jobs, job)
	if job.Terminal() && s.notify != nil {
		s.notify(job) // cache hit at submit: the cell is already done
	}
	return nil
}

// wait blocks until every submitted job is terminal, then fetches the
// results not fetched before and returns every result so far, indexed
// by key. A failed job fails the whole sweep.
func (s *submitter) wait(ctx context.Context) (map[string]*Result, error) {
	var pending []string
	for _, j := range s.Jobs {
		if !j.Terminal() {
			pending = append(pending, j.ID)
		}
	}
	final, err := s.c.WaitAll(ctx, pending, s.poll, s.notify)
	if err != nil {
		return nil, err
	}
	for i, j := range s.Jobs {
		if f, ok := final[j.ID]; ok {
			s.Jobs[i] = f
		}
	}
	for _, j := range s.Jobs {
		if j.State == JobFailed {
			return nil, fmt.Errorf("job %s (%s) failed: %s", j.ID, j.Spec, j.Error)
		}
		if _, ok := s.results[j.Key]; ok {
			continue
		}
		res, err := s.c.Result(ctx, j.Key)
		if err != nil {
			return nil, fmt.Errorf("fetch result %s: %w", j.Key, err)
		}
		s.results[j.Key] = res
	}
	return s.results, nil
}

// RunFigures runs the request's exp.Plan through the service: each batch
// of cells the plan hands over becomes jobs (deduplicated by result
// key), and the fetched results go back to the plan, which builds the
// tables the same way memstudy and dfsl do, so the output is
// byte-identical to theirs on the same points. Figure 19 makes a second
// batch: its SOPT policy jobs wait for the WT sweeps.
func RunFigures(ctx context.Context, c Service, req FigureRequest, poll time.Duration) (*FigureSet, error) {
	opt, err := ScaleOptions(req.Scale)
	if err != nil {
		return nil, err
	}
	plan := exp.Plan{Figs: req.Figs, Models: req.Models, Workloads: req.Workloads, Opt: opt}
	for _, f := range req.Figs {
		if !slices.Contains(Figures, f) {
			return nil, fmt.Errorf("sweep: figure %q is not sweepable (10, 14 and 18 need the sequential CLIs)", f)
		}
	}
	for _, name := range req.Configs {
		cfg, err := exp.ParseMemConfig(name)
		if err != nil {
			return nil, err
		}
		plan.Configs = append(plan.Configs, cfg)
	}
	sub := newSubmitter(c, req.Scale, poll, req.Notify)
	res, err := plan.Run(sub.batch(ctx))
	if err != nil {
		return nil, err
	}
	return &FigureSet{Figures: res.Figures(), submitted: sub.submitted}, nil
}
