package sweep

import (
	"context"
	"fmt"
	"time"

	"emerald/internal/exp"
	"emerald/internal/soc"
	"emerald/internal/telemetry"
)

// Executor returns the built-in executor: it runs the exp cell a spec
// describes (exp.RunCell) at the spec's scale, honoring ctx through the
// tick loops, and returns the cell's payload keyed by the spec's
// canonical form. watchdog is the forward-progress window in cycles (a
// simulation flat for that long aborts with guard.ErrNoProgress and a
// diagnostic bundle; 0 = off) and guard attaches the microarchitectural
// invariant checker. The spec must already be validated.
func Executor(watchdog uint64, guard bool) Exec {
	return func(ctx context.Context, spec Spec) (*Result, error) {
		opt, err := ScaleOptions(spec.Scale)
		if err != nil {
			return nil, err
		}
		opt.Ctx, opt.WatchdogCycles, opt.Guard = ctx, watchdog, guard
		// The runner threads the job's telemetry probe through the context;
		// attaching it here gives GET /jobs/{id} live progress and
		// /jobs/{id}/diag on-demand diagnostics for this simulation.
		opt.Probe = telemetry.FromContext(ctx)
		cell, err := spec.cell()
		if err != nil {
			return nil, err
		}
		r, err := exp.RunCell(cell, opt)
		if err != nil {
			return nil, err
		}
		res := &Result{Spec: spec.Canonical(), Cycles: r.Cycles, AvgCycles: r.AvgCycles, Region: r.Region}
		if cell.Kind == exp.CS1Cell {
			res.CS1 = &r.CS1
		}
		return res, nil
	}
}

// cell is the exp cell a spec runs; cellSpec is its inverse.
func (s Spec) cell() (exp.Cell, error) {
	switch s.Kind {
	case KindCS1:
		cfg, err := exp.ParseMemConfig(s.Config)
		return exp.Cell{Kind: exp.CS1Cell, Model: s.Model, Config: cfg, Mbps: s.Mbps}, err
	case KindCS2Sweep:
		return exp.Cell{Kind: exp.SweepCell, Workload: s.Workload}, nil
	case KindCS2Policy:
		policy, err := exp.ParseDFSLPolicy(s.Policy)
		return exp.Cell{Kind: exp.PolicyCell, Workload: s.Workload, Policy: policy, SOPT: s.SOPT}, err
	case KindRegion:
		return exp.Cell{Kind: exp.RegionCell, Workload: s.Workload, Frames: s.Frames, Start: s.Region, Span: s.Span}, nil
	}
	return exp.Cell{}, fmt.Errorf("sweep: unknown job kind %q", s.Kind)
}

// cellSpec is the job that runs an exp cell at the given scale. Every
// kind but Figure 18's WT points has one.
func cellSpec(scale string, c exp.Cell) Spec {
	switch c.Kind {
	case exp.CS1Cell:
		return Spec{Kind: KindCS1, Scale: scale, Model: c.Model, Config: c.Config.String(), Mbps: c.Mbps}
	case exp.SweepCell:
		return Spec{Kind: KindCS2Sweep, Scale: scale, Workload: c.Workload}
	case exp.PolicyCell:
		return Spec{Kind: KindCS2Policy, Scale: scale, Workload: c.Workload,
			Policy: c.Policy.String(), SOPT: c.SOPT}
	case exp.RegionCell:
		return Spec{Kind: KindRegion, Scale: scale, Workload: c.Workload,
			Frames: c.Frames, Region: c.Start, Span: c.Span}
	}
	panic(fmt.Sprintf("sweep: no job kind runs cell kind %d", c.Kind))
}

// cellResult unpacks a fetched result into the cell's form, checking it
// carries its kind's payload.
func cellResult(res *Result) (exp.CellResult, error) {
	var out exp.CellResult
	if res == nil {
		return out, fmt.Errorf("sweep: missing result")
	}
	switch k := res.Spec.Kind; {
	case k == KindCS1 && res.CS1 == nil, k == KindCS2Sweep && res.Cycles == nil, k == KindRegion && res.Region == nil:
		return out, fmt.Errorf("sweep: result for %s carries no payload", res.Spec)
	}
	if res.CS1 != nil {
		out.CS1 = *res.CS1
	}
	out.Cycles, out.AvgCycles, out.Region = res.Cycles, res.AvgCycles, res.Region
	return out, nil
}

// SyntheticExec returns an executor that sleeps for d instead of
// simulating, producing a deterministic spec-derived placeholder
// result shaped like the real one (so figure aggregation and the
// content-addressed store behave identically). Benchmark harnesses and
// the chaos soak use it to exercise fleet scheduling — placement,
// stealing, replication, failover — independently of simulation CPU
// cost; its results are NOT simulations.
func SyntheticExec(d time.Duration) Exec {
	return func(ctx context.Context, spec Spec) (*Result, error) {
		if d > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		c := spec.Canonical()
		res := &Result{Spec: c}
		switch c.Kind {
		case KindCS1:
			res.CS1 = &soc.Results{
				Config:          c.Config,
				Model:           fmt.Sprintf("M%d", c.Model),
				MeanGPUCycles:   float64(100*c.Model + c.Mbps),
				MeanFrameCycles: float64(200*c.Model + c.Mbps),
				DisplayServed:   int64(c.Mbps),
				FramesShown:     60,
				RowHitRate:      0.5,
				BytesPerAct:     64,
			}
		case KindCS2Sweep:
			for wt := 1; wt <= 8; wt++ {
				res.Cycles = append(res.Cycles, uint64(1000*c.Workload+wt))
			}
		case KindCS2Policy:
			res.AvgCycles = float64(1000*c.Workload + len(c.Policy))
		case KindRegion:
			cycles := make([]uint64, c.Span)
			for i := range cycles {
				cycles[i] = uint64(1000*c.Workload + 10*c.Region + i)
			}
			res.Region = &exp.RegionResult{
				Workload: c.Workload, Frames: c.Frames, Start: c.Region,
				Span: c.Span, FrameCycles: cycles,
				Digest: fmt.Sprintf("synthetic-%s", c.Key()),
			}
		}
		return res, nil
	}
}
