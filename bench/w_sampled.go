package main

import (
	"fmt"
	"math"
	"time"

	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/sample"
)

const (
	sampledFrames = 480
	sampledK      = 3
	sampledSpan   = 1
	// sampledTolerance is how far the sampled estimate may sit from the
	// detailed run before the op counts as failed.
	sampledTolerance = 0.05
	// checkpointStride is the frame grid exp.RunSampled checkpoints on.
	checkpointStride = 4
	// sampledMinFrames floors a shrunk scenario: three regions estimate
	// a shorter one worse than the tolerance (8% off at 96 and at 120
	// frames, 2% at 160, measured), and the smoke run takes the same
	// check as the real one.
	sampledMinFrames = 160
)

// sampledLong is the sampled_long workload: exp.RunSampled over the W3
// scenario. Its inputs are fixed by exp's API (a workload id and a
// frame count), so the seed has nothing to vary here.
type sampledLong struct {
	opt    exp.Options
	frames int
	// detailed is the whole scenario run in detailed timing once in
	// set-up: the only accuracy reference the repository holds. The
	// model itself is unvalidated against silicon.
	detailed uint64

	est      uint64 // the first op's estimate; every op must repeat it
	regions  int
	estSum   float64
	spansRun bool
	ckptSize int
}

func setupSampledLong(e *env) (instance, error) {
	s := &sampledLong{opt: exp.Smoke(), frames: max(e.n(sampledFrames), sampledMinFrames)}
	ref, err := exp.RunRegionJob(geom.W3Cube, s.frames, 0, s.frames, s.opt)
	if err != nil {
		return nil, err
	}
	s.detailed = ref.TotalCycles()
	return s, nil
}

func (s *sampledLong) op() error {
	res, err := exp.RunSampled(geom.W3Cube, s.frames, sampledK, sampledSpan, 1, s.opt)
	if err != nil {
		return err
	}
	got := res.Estimate.TotalCycles
	s.regions = len(res.Regions)
	s.estSum += float64(got)
	if s.est == 0 {
		s.est = got
	}
	if got != s.est {
		return fmt.Errorf("sampled_long: estimate %d differs from the first op's %d", got, s.est)
	}
	if e := s.errPct(); e > 100*sampledTolerance {
		return fmt.Errorf("sampled_long: estimate %d is %.2f%% from the detailed run's %d", got, e, s.detailed)
	}
	return nil
}

func (s *sampledLong) errPct() float64 {
	return 100 * math.Abs(float64(s.est)-float64(s.detailed)) / float64(s.detailed)
}

func (s *sampledLong) warm() error { return s.op() }

func (s *sampledLong) round(tr *tracer, rec *roundRec) error {
	rec.op(func(int) error { return s.op() })
	if tr != nil && !s.spansRun {
		s.spansRun = true
		return s.steps(tr, rec.opBase)
	}
	return nil
}

// steps walks exp.RunSampled's pipeline once more through its exported
// pieces with a span around each. It is not part of the timed op:
// exp.RunRegionJob re-records the trace and re-runs the functional pass
// up to its region, work RunSampled shares between regions, so the
// spans bound the op from above and do not add up to it exactly.
func (s *sampledLong) steps(tr *tracer, op int) error {
	root := tr.begin(noSpan, "sampled_long.steps", op)
	defer tr.end(root)

	sp := tr.begin(root, "sample.record_trace_ms", op)
	rec, err := exp.RecordWorkloadTrace(geom.W3Cube, s.frames, s.opt)
	tr.end(sp)
	if err != nil {
		return err
	}
	var grid []int
	for f := 0; f < s.frames; f += checkpointStride {
		grid = append(grid, f)
	}
	t0 := time.Now()
	pass, err := sample.Pass(rec, sample.PassConfig{CheckpointAt: grid})
	if err != nil {
		return err
	}
	// One pass covers every frame; the metric is per frame.
	perFrame := time.Since(t0) / time.Duration(s.frames)
	tr.add(root, "sample.pass_ms_per_frame", op, t0, t0.Add(perFrame))
	if b, err := pass.Checkpoints[0].Bytes(); err == nil {
		s.ckptSize = len(b)
	}

	sp = tr.begin(root, "sample.select_ms", op)
	regions, err := sample.SelectRegions(pass.Frames, sampledK)
	tr.end(sp)
	if err != nil {
		return err
	}
	cycles := make([][]uint64, len(regions))
	for i, reg := range regions {
		sp = tr.begin(root, "sample.region_ms", op)
		res, err := exp.RunRegionJob(geom.W3Cube, s.frames, reg.Frame, sampledSpan, s.opt)
		tr.end(sp)
		if err != nil {
			return err
		}
		cycles[i] = res.FrameCycles
	}
	sp = tr.begin(root, "sample.reconstruct_us", op)
	est, err := sample.Reconstruct(s.frames, regions, cycles)
	tr.end(sp)
	if err != nil {
		return err
	}
	if est.TotalCycles != s.est {
		return fmt.Errorf("sampled_long: stepwise estimate %d differs from exp.RunSampled's %d", est.TotalCycles, s.est)
	}
	return nil
}

// counts reports the estimated cycles simulated so far: the sampled
// run's systems are built inside exp, out of the benchmark's sight.
func (s *sampledLong) counts() counts { return counts{"cycles": s.estSum} }

func (s *sampledLong) check() []string { return nil }

func (s *sampledLong) finish(ms metricSet) {
	ms.set("est_err_pct", s.errPct(), 0)
	ms.set("sample.regions", float64(s.regions), 0)
	if s.ckptSize > 0 {
		ms.set("trace.ckpt_bytes", float64(s.ckptSize), 0)
	}
}

func (s *sampledLong) close() {}
