package sweep

import (
	"context"
	"fmt"
	"time"

	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/soc"
	"emerald/internal/stats"
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

// FigureRequest describes a client-side sweep: which figures to
// regenerate, at which scale, over which slices of the paper's config
// matrices (Tables 6/8).
type FigureRequest struct {
	// Figs lists figure names in print order: "9", "11", "12", "13",
	// "17", "19". (10, 14 and 18 need timelines or per-system counter
	// isolation and stay on the sequential CLIs.)
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

func (r FigureRequest) withDefaults() FigureRequest {
	if len(r.Models) == 0 {
		r.Models = []int{geom.M1Chair, geom.M2Cube, geom.M3Mask, geom.M4Triangles}
	}
	if len(r.Configs) == 0 {
		for _, c := range exp.AllMemConfigs() {
			r.Configs = append(r.Configs, c.String())
		}
	}
	if len(r.Workloads) == 0 {
		r.Workloads = []int{geom.W1Sibenik, geom.W2Spot, geom.W3Cube,
			geom.W4Suzanne, geom.W5SuzanneT, geom.W6Teapot}
	}
	return r
}

// wantsFig reports whether fig is requested.
func (r FigureRequest) wantsFig(fig string) bool {
	for _, f := range r.Figs {
		if f == fig {
			return true
		}
	}
	return false
}

// Figure pairs a figure name with its aggregated table.
type Figure struct {
	Name  string
	Table *stats.Table
}

// FigureSet is the outcome of a client-side sweep: the aggregated
// tables (in request order) plus every unique job that was submitted,
// for cache accounting.
type FigureSet struct {
	Figures []Figure
	Jobs    []Job
}

// CacheHits counts jobs served from the content-addressed store.
func (fs *FigureSet) CacheHits() int {
	n := 0
	for _, j := range fs.Jobs {
		if j.Cached {
			n++
		}
	}
	return n
}

// submitter deduplicates specs by result key while preserving
// submission order, so overlapping figures (9 and 11 share the
// regular-load matrix) cost one job per unique simulation point.
type submitter struct {
	c      Service
	poll   time.Duration
	seen   map[string]Job
	jobs   []Job
	notify func(Job)
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
	s.jobs = append(s.jobs, job)
	if job.Terminal() && s.notify != nil {
		s.notify(job) // cache hit at submit: the cell is already done
	}
	return nil
}

// wait blocks until every submitted job is terminal, then fetches the
// results, indexed by key. A failed job fails the whole sweep.
func (s *submitter) wait(ctx context.Context) (map[string]*Result, error) {
	var pending []string
	for _, j := range s.jobs {
		if !j.Terminal() {
			pending = append(pending, j.ID)
		}
	}
	final, err := s.c.WaitAll(ctx, pending, s.poll, s.notify)
	if err != nil {
		return nil, err
	}
	for i, j := range s.jobs {
		if f, ok := final[j.ID]; ok {
			s.jobs[i] = f
		}
	}
	results := make(map[string]*Result, len(s.jobs))
	for _, j := range s.jobs {
		if j.State == JobFailed {
			return nil, fmt.Errorf("job %s (%s) failed: %s", j.ID, j.Spec, j.Error)
		}
		if _, ok := results[j.Key]; ok {
			continue
		}
		res, err := s.c.Result(ctx, j.Key)
		if err != nil {
			return nil, fmt.Errorf("fetch result %s: %w", j.Key, err)
		}
		results[j.Key] = res
	}
	return results, nil
}

// RunFigures expands the request into jobs, submits them (deduplicated
// by result key), waits for completion, and aggregates the results
// through the same internal/exp table builders the sequential CLIs
// use — so the output is byte-identical to memstudy/dfsl on the same
// points. Figure 19 submits in two phases: the WT sweeps must finish
// before the SOPT policy jobs can be specified.
func RunFigures(ctx context.Context, c Service, req FigureRequest, poll time.Duration) (*FigureSet, error) {
	req = req.withDefaults()
	opt, err := ScaleOptions(req.Scale)
	if err != nil {
		return nil, err
	}
	sub := &submitter{c: c, poll: poll, seen: make(map[string]Job), notify: req.Notify}

	cs1 := func(mbps int) error {
		for _, m := range req.Models {
			for _, cfg := range req.Configs {
				spec := Spec{Kind: KindCS1, Scale: req.Scale, Model: m,
					Config: cfg, Mbps: mbps}
				if err := sub.submit(ctx, spec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Phase 1: everything that is independent of other results.
	if req.wantsFig("9") || req.wantsFig("11") {
		if err := cs1(opt.RegularMbps); err != nil {
			return nil, err
		}
	}
	if req.wantsFig("12") || req.wantsFig("13") {
		if err := cs1(opt.HighMbps); err != nil {
			return nil, err
		}
	}
	if req.wantsFig("17") || req.wantsFig("19") {
		for _, w := range req.Workloads {
			spec := Spec{Kind: KindCS2Sweep, Scale: req.Scale, Workload: w}
			if err := sub.submit(ctx, spec); err != nil {
				return nil, err
			}
		}
	}
	results, err := sub.wait(ctx)
	if err != nil {
		return nil, err
	}

	// Aggregation helpers over the fetched results.
	matrix := func(mbps int) (exp.CS1Results, error) {
		out := make(exp.CS1Results)
		for _, m := range req.Models {
			out[m] = make(map[exp.MemConfig]soc.Results)
			for _, cfgName := range req.Configs {
				cfg, err := exp.ParseMemConfig(cfgName)
				if err != nil {
					return nil, err
				}
				key := Spec{Kind: KindCS1, Scale: req.Scale, Model: m,
					Config: cfgName, Mbps: mbps}.Key()
				res, ok := results[key]
				if !ok || res.CS1 == nil {
					return nil, fmt.Errorf("missing cs1 result for M%d/%s/%d", m, cfgName, mbps)
				}
				out[m][cfg] = *res.CS1
			}
		}
		return out, nil
	}
	sweeps := func() (map[int][]uint64, error) {
		return exp.WTSweeps(func(w int, _ exp.Options) ([]uint64, error) {
			res, ok := results[Spec{Kind: KindCS2Sweep, Scale: req.Scale, Workload: w}.Key()]
			if !ok || res.Cycles == nil {
				return nil, fmt.Errorf("missing WT sweep result for W%d", w)
			}
			return res.Cycles, nil
		}, req.Workloads, exp.Options{})
	}

	fs := &FigureSet{}
	addTable := func(name string, t *stats.Table) {
		fs.Figures = append(fs.Figures, Figure{Name: name, Table: t})
	}
	for _, fig := range req.Figs {
		switch fig {
		case "9", "11":
			m, err := matrix(opt.RegularMbps)
			if err != nil {
				return nil, err
			}
			if fig == "9" {
				addTable(fig, exp.Fig09Table(m))
			} else {
				addTable(fig, exp.Fig11Table(m))
			}
		case "12", "13":
			m, err := matrix(opt.HighMbps)
			if err != nil {
				return nil, err
			}
			if fig == "12" {
				addTable(fig, exp.Fig12Table(m))
			} else {
				addTable(fig, exp.Fig13Table(m))
			}
		case "17":
			sw, err := sweeps()
			if err != nil {
				return nil, err
			}
			addTable(fig, exp.Fig17Table(req.Workloads, sw, opt.MaxWT))
		case "19":
			sw, err := sweeps()
			if err != nil {
				return nil, err
			}
			sopt := exp.SOPTFromSweeps(sw, opt.MaxWT)
			// Phase 2: the policy runs, now that SOPT is known.
			for _, w := range req.Workloads {
				for _, p := range exp.AllDFSLPolicies() {
					spec := Spec{Kind: KindCS2Policy, Scale: req.Scale,
						Workload: w, Policy: p.String()}
					if p == exp.SOPT {
						spec.SOPT = sopt
					}
					if err := sub.submit(ctx, spec); err != nil {
						return nil, err
					}
				}
			}
			polRes, err := sub.wait(ctx)
			if err != nil {
				return nil, err
			}
			avgs := make(map[int]map[exp.DFSLPolicy]float64)
			for _, w := range req.Workloads {
				avgs[w] = make(map[exp.DFSLPolicy]float64)
				for _, p := range exp.AllDFSLPolicies() {
					spec := Spec{Kind: KindCS2Policy, Scale: req.Scale,
						Workload: w, Policy: p.String()}
					if p == exp.SOPT {
						spec.SOPT = sopt
					}
					res, ok := polRes[spec.Key()]
					if !ok {
						return nil, fmt.Errorf("missing policy result for W%d/%s", w, p)
					}
					avgs[w][p] = res.AvgCycles
				}
			}
			addTable(fig, exp.Fig19Table(req.Workloads, avgs, sopt, opt.MaxWT, opt.DFSLRunFrames))
		default:
			return nil, fmt.Errorf("sweep: figure %q is not sweepable (10, 14 and 18 need the sequential CLIs)", fig)
		}
	}
	fs.Jobs = sub.jobs
	return fs, nil
}
