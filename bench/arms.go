package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"emerald"
	"emerald/internal/emtrace"
	"emerald/internal/geom"
	"emerald/internal/guard"
	"emerald/internal/par"
	"emerald/internal/stats"
	"emerald/internal/telemetry"
)

// Paired arms: the same frames (or runs) executed in one process with a
// mechanism on and off, alternating which goes first, reported as the
// median of the per-pair time ratios. Results are bit-identical between
// the arms by the repository's determinism gates; only host time moves.

const (
	armPairs      = 16 // frame pairs per arm
	armWarmFrames = 2
	skipPairs     = 5 // soc_idle run pairs
	skipFrames    = 3
	// Group.Run can lose a completion on a 2-core host and spin forever
	// (ROADMAP, "Fix first"), and that must cost one metric, not the
	// run. The child gives up when its work makes no progress for
	// parStall; parDeadline is the parent's backstop for a child that
	// cannot even do that.
	parStall      = 3 * time.Second
	parDeadline   = 60 * time.Second
	parDispatches = 200_000
	parChunk      = 1_000 // dispatches between progress reports
)

// pairedRatios runs arm a and arm b on inputs 0..pairs-1, swapping the
// order every pair, and returns b's time over a's for each pair.
func pairedRatios(pairs int, a, b func(i int) error) ([]float64, error) {
	timed := func(f func(int) error, i int) (time.Duration, error) {
		t0 := time.Now()
		err := f(i)
		return time.Since(t0), err
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		t1, err := timed(first, i)
		if err != nil {
			return nil, err
		}
		t2, err := timed(second, i)
		if err != nil {
			return nil, err
		}
		ta, tb := t1, t2
		if i%2 == 1 {
			ta, tb = t2, t1
		}
		ratios = append(ratios, float64(tb)/float64(ta))
	}
	return ratios, nil
}

// warmRig builds a rig and renders the warm-up frames.
func warmRig(seed uint64) (*fragRig, error) {
	scene, err := fragScene(seed)
	if err != nil {
		return nil, err
	}
	r, err := newFragRig(scene, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < armWarmFrames; i++ {
		if err := r.frame(nil, -1, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// toggled pairs frames on one rig with a mechanism switched on (arm b)
// and off (arm a) between them: one system, one heap layout, so the
// ratio isolates the mechanism.
func toggled(r *fragRig, pairs int, on, off func(*emerald.StandaloneGPU)) ([]float64, error) {
	return pairedRatios(pairs,
		func(i int) error { off(r.sys); return r.frame(nil, -1, i) },
		func(i int) error { on(r.sys); return r.frame(nil, -1, i) })
}

// runArms runs the paired arms that belong to the workload.
func runArms(workload string, ms metricSet, o runOpts) {
	var err error
	switch workload {
	case "gpu_frag":
		err = fragArms(ms, o)
	case "soc_idle":
		err = skipArm(ms, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: arm:", err)
	}
}

func fragArms(ms metricSet, o runOpts) error {
	pairs := shrunk(armPairs, o.shrink)
	rig, err := warmRig(o.seed)
	if err != nil {
		return err
	}
	overhead := func(bOverA float64) float64 { return 100 * (bOverA - 1) }
	// A 64k-event ring: a full ring drops events but still pays for the emit.
	probe, tracer := telemetry.NewProbe(), emtrace.New(1<<16)
	for _, arm := range []struct {
		name    string
		on, off func(*emerald.StandaloneGPU)
		value   func(bOverA float64) float64
	}{
		// Arm b is the wheel off, so b over a is the wheel's speedup.
		{"gpu.wheel_speedup",
			func(s *emerald.StandaloneGPU) { s.SetEventWheel(false) },
			func(s *emerald.StandaloneGPU) { s.SetEventWheel(true) },
			func(r float64) float64 { return r }},
		{"telemetry.overhead_pct",
			func(s *emerald.StandaloneGPU) { s.SetProbe(probe) },
			func(s *emerald.StandaloneGPU) { s.SetProbe(nil) }, overhead},
		{"emtrace.overhead_pct",
			func(s *emerald.StandaloneGPU) { s.AttachTracer(tracer) },
			func(s *emerald.StandaloneGPU) { s.AttachTracer(nil) }, overhead},
	} {
		ratios, err := toggled(rig, pairs, arm.on, arm.off)
		if err != nil {
			return err
		}
		ms.set(arm.name, arm.value(median(ratios)), len(ratios))
	}
	// A guard cannot be detached, so its arm is a second rig.
	guarded, err := warmRig(o.seed)
	if err != nil {
		return err
	}
	guarded.sys.AttachGuard(guard.NewChecker())
	ratios, err := pairedRatios(pairs,
		func(i int) error { return rig.frame(nil, -1, i) },
		func(i int) error { return guarded.frame(nil, -1, i) })
	if err != nil {
		return err
	}
	ms.set("guard.overhead_pct", overhead(median(ratios)), len(ratios))
	parArm(ms, o)
	return nil
}

// skipArm pairs whole soc_idle runs with idle skipping on and off.
func skipArm(ms metricSet, o runOpts) error {
	frames := max(shrunk(skipFrames, o.shrink), idleMinFrames)
	scene, err := socScene(geom.M2Cube, o.seed)
	if err != nil {
		return err
	}
	run := func(skip bool) func(int) error {
		return func(int) error {
			sys, err := buildIdle(scene, frames, stats.NewRegistry())
			if err != nil {
				return err
			}
			sys.SetIdleSkip(skip)
			return sys.Run(idleBudget)
		}
	}
	// Arm b is skipping off, so b over a is the speedup skipping buys.
	ratios, err := pairedRatios(shrunk(skipPairs, o.shrink), run(true), run(false))
	if err != nil {
		return err
	}
	ms.set("soc.skip_speedup", median(ratios), len(ratios))
	return nil
}

// parResult is a line the par arm's child prints: one after the frame
// pairs, then one per finished dispatch chunk (cumulative), so a hang
// leaves everything measured before it. The parent keeps the last of
// each kind.
type parResult struct {
	DispatchNS float64 `json:"dispatch_ns,omitempty"`
	Dispatches int     `json:"dispatches,omitempty"`
	SpeedupW2  float64 `json:"speedup_w2,omitempty"`
	Pairs      int     `json:"pairs,omitempty"`
	Hang       bool    `json:"hang,omitempty"`
}

// parArm runs the worker-pool measurements in a child process under a
// deadline and reports par.hang = 1 when the child had to be killed.
func parArm(ms metricSet, o runOpts) {
	ctx, cancel := context.WithTimeout(context.Background(), parDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.self, "-arm", "par", "-seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child, killed or not
	hang := 0.0
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		hang = 1
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "bench: par arm:", err)
	}
	defer func() { ms.set("par.hang", hang, 1) }()
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		var res parResult
		if json.Unmarshal(line, &res) != nil {
			continue
		}
		if res.Pairs > 0 {
			ms.set("par.frame_speedup_w2", res.SpeedupW2, res.Pairs)
		}
		if res.Dispatches > 0 {
			ms.set("par.dispatch_ns", res.DispatchNS, res.Dispatches)
		}
		if res.Hang {
			hang = 1
		}
	}
}

// parChild is the par arm's body: gpu_frag frames with one worker
// against two, then Group.Run's dispatch cost on the same pool of two.
// Both go through Group.Run, so both run beside a watchdog: the work
// reports each frame pair and each dispatch chunk, and parStall without
// a report is a hang. The wedged goroutine is abandoned then and the
// process exits with what it has.
func parChild(seed uint64) error {
	pool := par.NewPool(2)
	enc := json.NewEncoder(os.Stdout)
	reports := make(chan parResult) // the zero value is a bare heartbeat
	failed := make(chan error, 1)
	go func() {
		defer close(reports)
		rig, err := warmRig(seed)
		if err != nil {
			failed <- err
			return
		}
		// Arm b is two workers, so a over b is what the second worker buys.
		ratios, err := toggled(rig, armPairs,
			func(s *emerald.StandaloneGPU) { s.SetParallel(pool); reports <- parResult{} },
			func(s *emerald.StandaloneGPU) { s.SetParallel(nil) })
		if err != nil {
			failed <- err
			return
		}
		reports <- parResult{SpeedupW2: 1 / median(ratios), Pairs: len(ratios)}

		tasks := make([]func(), 8)
		for i := range tasks {
			tasks[i] = func() {}
		}
		g := par.NewGroup(pool, tasks)
		var done parResult
		var spent time.Duration
		for c := 0; c < parDispatches/parChunk; c++ {
			t0 := time.Now()
			for i := 0; i < parChunk; i++ {
				g.Run()
			}
			spent += time.Since(t0)
			done.Dispatches += parChunk
			done.DispatchNS = float64(spent) / float64(done.Dispatches)
			reports <- done
		}
	}()
	for {
		select {
		case r, ok := <-reports:
			if !ok {
				select {
				case err := <-failed:
					return err
				default:
					pool.Close()
					return nil
				}
			}
			if r != (parResult{}) {
				if err := enc.Encode(r); err != nil {
					return err
				}
			}
		case <-time.After(parStall):
			if err := enc.Encode(parResult{Hang: true}); err != nil {
				return err
			}
			os.Exit(0) // returning would wait on the wedged dispatch
		}
	}
}
