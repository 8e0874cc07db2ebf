package sweep

import (
	"context"
	"fmt"
	"time"

	"emerald/internal/exp"
	"emerald/internal/par"
	"emerald/internal/soc"
	"emerald/internal/telemetry"
)

// ExecConfig parameterizes the built-in executor's hardening: both
// knobs thread through exp.Options into every simulation it runs.
type ExecConfig struct {
	// Watchdog is the forward-progress window in cycles; a simulation
	// flat for that long aborts with guard.ErrNoProgress and a
	// diagnostic bundle (0 = off).
	Watchdog uint64
	// Guard attaches the microarchitectural invariant checker.
	Guard bool
}

// Executor returns the built-in executor with the given hardening.
func Executor(cfg ExecConfig) Exec {
	return func(ctx context.Context, spec Spec) (*Result, error) {
		return execute(ctx, spec, cfg)
	}
}

// Execute is the built-in executor with default hardening (no
// watchdog, no guard): it runs the simulation a spec describes,
// honoring ctx through the tick loops (internal/exp threads it into
// soc.RunCtx / Standalone.RunUntilIdleCtx), and returns the result
// keyed by the spec's canonical form. The spec must already be
// validated.
func Execute(ctx context.Context, spec Spec) (*Result, error) {
	return execute(ctx, spec, ExecConfig{})
}

func execute(ctx context.Context, spec Spec, cfg ExecConfig) (*Result, error) {
	opt, err := ScaleOptions(spec.Scale)
	if err != nil {
		return nil, err
	}
	opt.Ctx = ctx
	opt.WatchdogCycles = cfg.Watchdog
	opt.Guard = cfg.Guard
	// The runner threads the job's telemetry probe through the context;
	// attaching it here gives GET /jobs/{id} live progress and
	// /jobs/{id}/diag on-demand diagnostics for this simulation.
	opt.Probe = telemetry.FromContext(ctx)
	if spec.Workers > 1 {
		pool := par.NewPool(spec.Workers)
		defer pool.Close()
		opt.Pool = pool
	}

	res := &Result{Spec: spec.Canonical()}
	switch spec.Kind {
	case KindCS1:
		cfg, err := exp.ParseMemConfig(spec.Config)
		if err != nil {
			return nil, err
		}
		r, err := exp.RunCaseStudyI(spec.Model, cfg, spec.Mbps, opt)
		if err != nil {
			return nil, err
		}
		res.CS1 = &r

	case KindCS2Sweep:
		times, err := exp.RunWTSweep(spec.Workload, opt)
		if err != nil {
			return nil, err
		}
		res.Cycles = times

	case KindCS2Policy:
		policy, err := exp.ParseDFSLPolicy(spec.Policy)
		if err != nil {
			return nil, err
		}
		avg, err := exp.RunCS2Policy(spec.Workload, policy, spec.SOPT, opt)
		if err != nil {
			return nil, err
		}
		res.AvgCycles = avg

	case KindRegion:
		r, err := exp.RunRegionJob(spec.Workload, spec.Frames, spec.Region, spec.Span, opt)
		if err != nil {
			return nil, err
		}
		res.Region = r

	default:
		return nil, fmt.Errorf("sweep: unknown job kind %q", spec.Kind)
	}
	return res, nil
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
