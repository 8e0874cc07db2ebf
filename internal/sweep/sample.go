package sweep

import (
	"context"
	"fmt"
	"time"

	"emerald/internal/exp"
	"emerald/internal/sample"
)

// SampleRequest describes a client-side sampled-simulation sweep: the
// cheap, deterministic stages (record, functional pass, region
// selection) run in the client, and each selected region becomes one
// KindRegion job — cached, placed, stolen and failed over by the same
// machinery as every other job kind.
type SampleRequest struct {
	Workload int    // 1..6 (Table 8 workloads)
	Frames   int    // scenario length
	K        int    // representative regions to select
	Span     int    // detailed frames per region
	Scale    string // smoke|quick|paper
	// Notify, when non-nil, streams jobs as they reach a terminal
	// state (including cache hits at submit).
	Notify func(Job)
}

// SampleSet is the outcome of a sampled sweep.
type SampleSet struct {
	Sigs     []sample.FrameInfo
	Regions  []sample.Region
	Results  []*exp.RegionResult
	Estimate sample.Estimate
	Jobs     []Job
}

// CacheHits counts jobs served from the content-addressed store.
func (ss *SampleSet) CacheHits() int {
	n := 0
	for _, j := range ss.Jobs {
		if j.Cached {
			n++
		}
	}
	return n
}

// RunSample runs the sampled-simulation pipeline against a sweep
// service: record the workload's trace, functional-pass it for
// signatures, cluster into K regions, submit one region job per
// representative (deduplicated by result key), wait, and reconstruct
// the whole-run estimate from the weighted region means. Selection is
// deterministic, so repeating the same request hits the cache on every
// region.
func RunSample(ctx context.Context, c Service, req SampleRequest, poll time.Duration) (*SampleSet, error) {
	if req.Span < 1 {
		req.Span = 1
	}
	opt, err := ScaleOptions(req.Scale)
	if err != nil {
		return nil, err
	}
	tr, err := exp.RecordWorkloadTrace(req.Workload, req.Frames, opt)
	if err != nil {
		return nil, err
	}
	pass, err := sample.Pass(tr, sample.PassConfig{})
	if err != nil {
		return nil, err
	}
	regions, err := sample.SelectRegions(pass.Frames, req.K)
	if err != nil {
		return nil, err
	}

	spec := func(r sample.Region) Spec {
		return Spec{Kind: KindRegion, Scale: req.Scale, Workload: req.Workload,
			Frames: req.Frames, Region: r.Frame, Span: req.Span}
	}
	sub := newSubmitter(c, poll, req.Notify)
	for _, r := range regions {
		if err := sub.submit(ctx, spec(r)); err != nil {
			return nil, err
		}
	}
	results, err := sub.wait(ctx)
	if err != nil {
		return nil, err
	}

	out := make([]*exp.RegionResult, len(regions))
	cycles := make([][]uint64, len(regions))
	for i, r := range regions {
		res, ok := results[spec(r).Key()]
		if !ok || res.Region == nil {
			return nil, fmt.Errorf("sweep: missing region result for W%d frame %d", req.Workload, r.Frame)
		}
		out[i] = res.Region
		cycles[i] = res.Region.FrameCycles
	}
	est, err := sample.Reconstruct(req.Frames, regions, cycles)
	if err != nil {
		return nil, err
	}
	return &SampleSet{
		Sigs: pass.Frames, Regions: regions, Results: out,
		Estimate: est, Jobs: sub.jobs,
	}, nil
}
