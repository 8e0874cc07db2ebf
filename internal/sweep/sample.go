package sweep

import (
	"context"
	"time"

	"emerald/internal/exp"
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

// SampleSet is the outcome of a sampled sweep: the pipeline's result
// and the jobs submitted.
type SampleSet struct {
	exp.SampledResult
	submitted
}

// RunSample runs exp's sampled pipeline against a sweep service: the
// selected regions go through the same batch of jobs as RunFigures'
// cells (one job per region, deduplicated by result key). Selection is
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
	sub := newSubmitter(c, req.Scale, poll, req.Notify)
	res, err := exp.RunSampledCells(req.Workload, req.Frames, req.K, req.Span, opt, sub.batch(ctx))
	if err != nil {
		return nil, err
	}
	return &SampleSet{SampledResult: *res, submitted: sub.submitted}, nil
}
