package sample

import "fmt"

// RegionEstimate is one region's contribution to the reconstruction.
type RegionEstimate struct {
	Frame      int     `json:"frame"`
	Weight     float64 `json:"weight"`
	Frames     int     `json:"frames"` // frames measured in detail
	MeanCycles float64 `json:"mean_cycles"`
}

// Estimate is the weighted whole-run reconstruction: each region's
// mean detailed frame time, weighted by the fraction of frames its
// cluster represents, extrapolated to the full scenario. The error
// model is SimPoint's — exact when frames within a cluster cost the
// same, and bounded by within-cluster cycle variance otherwise.
type Estimate struct {
	FramesTotal     int              `json:"frames_total"`
	MeanFrameCycles float64          `json:"mean_frame_cycles"`
	TotalCycles     uint64           `json:"total_cycles"`
	Regions         []RegionEstimate `json:"regions"`
}

// Reconstruct combines per-region detailed cycle measurements
// (cycles[i] are the measured frames of regions[i]) into the whole-run
// estimate.
func Reconstruct(totalFrames int, regions []Region, cycles [][]uint64) (Estimate, error) {
	if totalFrames < 1 {
		return Estimate{}, fmt.Errorf("sample: totalFrames must be >= 1, got %d", totalFrames)
	}
	if len(regions) != len(cycles) {
		return Estimate{}, fmt.Errorf("sample: %d regions but %d cycle series", len(regions), len(cycles))
	}
	est := Estimate{FramesTotal: totalFrames}
	var wsum, acc float64
	for i, reg := range regions {
		if len(cycles[i]) == 0 {
			return Estimate{}, fmt.Errorf("sample: region at frame %d measured no frames", reg.Frame)
		}
		var sum uint64
		for _, c := range cycles[i] {
			sum += c
		}
		mean := float64(sum) / float64(len(cycles[i]))
		est.Regions = append(est.Regions, RegionEstimate{
			Frame: reg.Frame, Weight: reg.Weight, Frames: len(cycles[i]), MeanCycles: mean,
		})
		wsum += reg.Weight
		acc += reg.Weight * mean
	}
	if wsum <= 0 {
		return Estimate{}, fmt.Errorf("sample: region weights sum to %v", wsum)
	}
	est.MeanFrameCycles = acc / wsum
	est.TotalCycles = uint64(est.MeanFrameCycles*float64(totalFrames) + 0.5)
	return est, nil
}
