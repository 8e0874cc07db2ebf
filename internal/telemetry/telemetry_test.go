package telemetry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"emerald/internal/guard"
)

func sample(cycle uint64, frames int, skipped uint64, c Components) Sample {
	return Sample{
		Cycle: cycle, FramesDone: frames, FramesTarget: 10,
		SkippedCycles: skipped, Components: c,
	}
}

func TestProbePublishSnapshot(t *testing.T) {
	p := NewProbe()
	if _, ok := p.Progress(); ok {
		t.Fatal("fresh probe reported progress before the first Publish")
	}
	comp := Components{
		CPUInstructions: 100, GPUWork: 200, DRAMBytes: 300,
		DisplayLines: 4, FramesRetired: 2,
	}
	p.Publish(sample(4096, 2, 1024, comp), nil)
	pr, ok := p.Progress()
	if !ok {
		t.Fatal("no progress after Publish")
	}
	if pr.Cycle != 4096 || pr.FramesDone != 2 || pr.FramesTarget != 10 {
		t.Fatalf("cycle/frames = %d/%d/%d, want 4096/2/10",
			pr.Cycle, pr.FramesDone, pr.FramesTarget)
	}
	if want := uint64(100 + 200 + 300 + 4 + 2); pr.WorkSig != want {
		t.Fatalf("WorkSig = %d, want %d", pr.WorkSig, want)
	}
	if pr.SkippedCycles != 1024 || pr.SkipRatio != 1024.0/4096.0 {
		t.Fatalf("skip = %d ratio %g, want 1024 ratio 0.25",
			pr.SkippedCycles, pr.SkipRatio)
	}
	if pr.Components != comp {
		t.Fatalf("components = %+v, want %+v", pr.Components, comp)
	}
	if pr.SampledAtMS == 0 {
		t.Fatal("SampledAtMS not stamped")
	}
	// The snapshot is a copy: a later Publish must not mutate it.
	p.Publish(sample(8192, 3, 1024, comp), nil)
	if pr.Cycle != 4096 {
		t.Fatal("earlier snapshot mutated by later Publish")
	}
}

func TestProbeRateWindow(t *testing.T) {
	p := NewProbe()
	p.rateEvery = time.Millisecond
	p.Publish(sample(1000, 0, 0, Components{GPUWork: 10}), nil)
	if pr, _ := p.Progress(); pr.CyclesPerSec != 0 || pr.WorkSigDelta != 0 {
		t.Fatalf("rate computed before the first window completed: %+v", pr)
	}
	time.Sleep(5 * time.Millisecond)
	p.Publish(sample(5000, 0, 0, Components{GPUWork: 70}), nil)
	pr, _ := p.Progress()
	if pr.CyclesPerSec <= 0 {
		t.Fatalf("CyclesPerSec = %g after a full window, want > 0", pr.CyclesPerSec)
	}
	if pr.WorkSigDelta != 60 {
		t.Fatalf("WorkSigDelta = %d, want 60", pr.WorkSigDelta)
	}

	// A cycle moving backwards means a new system was attached to the
	// same probe (sequential harness runs): the window must restart
	// rather than computing a negative rate.
	p.Publish(sample(100, 0, 0, Components{GPUWork: 1}), nil)
	pr, _ = p.Progress()
	if pr.CyclesPerSec != 0 || pr.WorkSigDelta != 0 {
		t.Fatalf("window not reset on cycle regression: %+v", pr)
	}
	if pr.Cycle != 100 {
		t.Fatalf("Cycle = %d after reattach, want 100", pr.Cycle)
	}
}

func TestRequestDiagServedAtNextPublish(t *testing.T) {
	p := NewProbe()
	want := &guard.Diag{Cycle: 42, Sections: []guard.Section{
		{Title: "cpu0", Lines: []string{"pc=0x40"}},
	}}
	done := make(chan struct{})
	var got *guard.Diag
	var gotErr error
	go func() {
		defer close(done)
		got, gotErr = p.RequestDiag(context.Background())
	}()
	// Publish until the request lands (the requester goroutine races
	// the first few publishes).
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.Publish(sample(1, 0, 0, Components{}), func() *guard.Diag { return want })
		select {
		case <-done:
			if gotErr != nil {
				t.Fatal(gotErr)
			}
			if got != want {
				t.Fatalf("diag = %p, want the closure's bundle %p", got, want)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("RequestDiag never served")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestRequestDiagCoalesces(t *testing.T) {
	p := NewProbe()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.RequestDiag(context.Background())
		}(i)
	}
	d := &guard.Diag{Sections: []guard.Section{{Title: "x"}}}
	deadline := time.Now().Add(5 * time.Second)
	served := make(chan struct{})
	go func() { wg.Wait(); close(served) }()
	for {
		p.Publish(sample(1, 0, 0, Components{}), func() *guard.Diag { return d })
		select {
		case <-served:
			for i, err := range errs {
				if err != nil {
					t.Fatalf("requester %d: %v", i, err)
				}
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("coalesced requests never all served")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestRequestDiagContextCancel(t *testing.T) {
	p := NewProbe() // never published: the request can only wait
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.RequestDiag(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestFinish(t *testing.T) {
	p := NewProbe()
	p.Publish(sample(2048, 1, 0, Components{GPUWork: 5}), nil)

	// A request pending at Finish time must fail fast, not hang.
	got := make(chan error, 1)
	go func() {
		_, err := p.RequestDiag(context.Background())
		got <- err
	}()
	time.Sleep(time.Millisecond) // let the waiter install (either order is correct)
	p.Finish()
	select {
	case err := <-got:
		if !errors.Is(err, ErrFinished) {
			t.Fatalf("pending request err = %v, want ErrFinished", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending RequestDiag hung across Finish")
	}

	if !p.finished.Load() {
		t.Fatal("Finished() false after Finish")
	}
	if _, err := p.RequestDiag(context.Background()); !errors.Is(err, ErrFinished) {
		t.Fatalf("post-Finish request err = %v, want ErrFinished", err)
	}
	// The last snapshot stays readable after the run ends.
	if pr, ok := p.Progress(); !ok || pr.Cycle != 2048 {
		t.Fatalf("last progress lost after Finish: %+v ok=%v", pr, ok)
	}
	p.Finish() // idempotent
}

func TestFinishRace(t *testing.T) {
	// Hammer RequestDiag against Finish: every request must resolve to
	// either a served diag or ErrFinished — never a hang.
	for i := 0; i < 50; i++ {
		p := NewProbe()
		d := &guard.Diag{}
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					p.Publish(Sample{Cycle: 1}, func() *guard.Diag { return d })
				}
			}
		}()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				diag, err := p.RequestDiag(ctx)
				if err == nil && diag == nil {
					t.Error("nil diag with nil error")
				}
				if err != nil && !errors.Is(err, ErrFinished) {
					t.Errorf("unexpected err %v", err)
				}
			}()
		}
		p.Finish()
		close(stop)
		wg.Wait()
	}
}

func TestContextRoundtrip(t *testing.T) {
	p := NewProbe()
	ctx := NewContext(context.Background(), p)
	if got := FromContext(ctx); got != p {
		t.Fatalf("FromContext = %p, want %p", got, p)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on a bare context = %p, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil-safety is the point
		t.Fatalf("FromContext(nil) = %p, want nil", got)
	}
}

func TestProgressLine(t *testing.T) {
	pr := Progress{
		Cycle: 1 << 20, FramesDone: 3, FramesTarget: 10,
		CyclesPerSec: 2.5e6, SkipRatio: 0.42,
		WorkSig: 1234, WorkSigDelta: 56,
	}
	line := pr.Line()
	for _, want := range []string{"cycle=1048576", "frames=3/10", "2.50 Mcyc/s", "42.0%", "1234(+56)"} {
		if !strings.Contains(line, want) {
			t.Fatalf("Line() = %q, missing %q", line, want)
		}
	}
	// Until-idle runs have no frame target: the /10 must disappear.
	pr.FramesTarget = 0
	if line := pr.Line(); !strings.Contains(line, "frames=3 ") || strings.Contains(line, "frames=3/") {
		t.Fatalf("Line() = %q shows a target with FramesTarget=0", line)
	}
}
