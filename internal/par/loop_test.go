package par

import (
	"context"
	"math/rand"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
)

// scripted is a system whose only state is its clock and a seeded list
// of event cycles: it is due at each of them and waits in between, with
// gaps from one cycle to several poll strides.
type scripted struct {
	cycle  uint64
	events []uint64 // ascending
	end    uint64   // Done once the clock reaches it
}

func newScripted(seed int64, start uint64) *scripted {
	rng := rand.New(rand.NewSource(seed))
	s := &scripted{cycle: start}
	at := start
	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0:
			at += 1 + uint64(rng.Intn(3)) // a busy stretch
		case 1:
			at += uint64(rng.Intn(3000)) // a wait across poll boundaries
		default:
			at += uint64(rng.Intn(200))
		}
		s.events = append(s.events, at)
	}
	s.end = at + 1
	return s
}

func (s *scripted) nextWake() uint64 {
	for _, e := range s.events {
		if e >= s.cycle {
			return e
		}
	}
	return mem.NeverWake
}

// TestChargeCoversEveryJumpedCycle runs the loop over scripted systems
// and records what it ticks and what it hands to Charge. Each cycle
// run is ticked or charged exactly once, so the spans plus the ticks
// are the cycles run; no span crosses a poll boundary, where the
// pollers read counters; and with Skip off the hook is never called.
func TestChargeCoversEveryJumpedCycle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, skip := range []bool{true, false} {
			start := uint64(seed * 777)
			s := newScripted(seed, start)
			seen := make([]int, s.end-start)
			var ticked, charged, spans uint64
			l := &Loop{
				Cycle: &s.cycle, Skip: skip,
				Tick: func() {
					seen[s.cycle-start]++
					ticked++
					s.cycle++
				},
				NextWake: s.nextWake,
				Charge: func(from, to uint64) {
					if !skip {
						t.Fatalf("seed %d: Charge(%d, %d) called with Skip off", seed, from, to)
					}
					if from != s.cycle || to <= from {
						t.Fatalf("seed %d: Charge(%d, %d) at cycle %d", seed, from, to, s.cycle)
					}
					if from>>10 != (to-1)>>10 {
						t.Fatalf("seed %d: Charge(%d, %d) crosses a poll boundary", seed, from, to)
					}
					for c := from; c < to; c++ {
						seen[c-start]++
					}
					charged += to - from
					spans++
				},
				Done:     func() bool { return s.cycle >= s.end },
				Progress: func() uint64 { return s.cycle },
				Diagnose: func(uint64) guard.Diag { return guard.Diag{} },
			}
			if err := l.Run(context.Background(), 1<<30); err != nil {
				t.Fatal(err)
			}
			run := s.cycle - start
			if ticked+charged != run || charged != l.Skipped {
				t.Fatalf("seed %d skip=%v: %d ticked + %d charged (Skipped %d), %d cycles run",
					seed, skip, ticked, charged, l.Skipped, run)
			}
			for c := start; c < s.cycle; c++ {
				if seen[c-start] != 1 {
					t.Fatalf("seed %d skip=%v: cycle %d ticked or charged %d times", seed, skip, c, seen[c-start])
				}
			}
			if skip && (spans == 0 || charged < run/2) {
				t.Fatalf("seed %d: %d spans charged %d of %d cycles; the script did not wait", seed, spans, charged, run)
			}
		}
	}
}
