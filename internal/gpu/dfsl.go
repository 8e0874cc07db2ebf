package gpu

import "math"

// DFSL implements the paper's Case Study II contribution: dynamic
// fragment-shading load-balancing (Algorithm 1). It exploits temporal
// coherence — consecutive frames render nearly the same content — by
// periodically evaluating every work-tile (WT) granularity and then
// running with the best one, re-evaluating every RunFrames frames.
//
// Usage: before each frame, call NextWT and set the GPU's WT; after the
// frame, call ObserveFrame with the frame's execution cycles.
type DFSL struct {
	MinWT, MaxWT int
	RunFrames    int

	frame       int
	minExecTime float64
	wtSize      int
	wtBest      int
}

// NewDFSL builds a controller with the paper's parameters (WT 1..10,
// evaluation 10 frames, run 100 frames by default).
func NewDFSL(minWT, maxWT, runFrames int) *DFSL {
	if minWT < 1 {
		minWT = 1
	}
	if maxWT < minWT {
		maxWT = minWT
	}
	if runFrames < 1 {
		runFrames = 1
	}
	return &DFSL{
		MinWT: minWT, MaxWT: maxWT, RunFrames: runFrames,
		minExecTime: math.Inf(1),
		wtSize:      minWT,
		wtBest:      minWT,
	}
}

// evalFrames is the evaluation-phase length: one frame per WT size
// (Algorithm 1: EvalFrames = MaxWT - MinWT; the +1 covers MinWT itself).
func (d *DFSL) evalFrames() int { return d.MaxWT - d.MinWT + 1 }

func (d *DFSL) period() int { return d.evalFrames() + d.RunFrames }

// Evaluating reports whether the controller is in an evaluation phase.
func (d *DFSL) Evaluating() bool { return d.frame%d.period() < d.evalFrames() }

// NextWT returns the WT size to render the upcoming frame with.
func (d *DFSL) NextWT() int {
	phase := d.frame % d.period()
	if phase == 0 {
		// New evaluation window (Algorithm 1 lines 13-17).
		d.minExecTime = math.Inf(1)
		d.wtSize = d.MinWT
	}
	if phase < d.evalFrames() {
		return d.MinWT + phase
	}
	return d.wtBest
}

// ObserveFrame records the just-rendered frame's execution time (in
// cycles) and advances the controller (Algorithm 1 lines 19-29).
func (d *DFSL) ObserveFrame(execCycles uint64) {
	phase := d.frame % d.period()
	if phase < d.evalFrames() {
		wt := d.MinWT + phase
		if float64(execCycles) < d.minExecTime {
			d.minExecTime = float64(execCycles)
			d.wtBest = wt
		}
	}
	d.frame++
}

// BestWT returns the current best-known WT size.
func (d *DFSL) BestWT() int { return d.wtBest }
