package par

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"emerald/internal/guard"
	"emerald/internal/mem"
)

// scriptedPart is a part whose only state is a seeded list of event
// cycles: it is due at each of them and waits in between, with gaps
// from one cycle to several poll strides. A tick at one of its forward
// cycles adds that same cycle to the next part's events, an effect the
// next part must see in the cycle it happened. It records, per cycle,
// how often it was ticked and charged.
type scriptedPart struct {
	selfGated bool     // its tick is a no-op off its events
	events    []uint64 // ascending; events[next:] are pending
	next      int
	forward   map[uint64]bool
	to        *scriptedPart
	posted    []uint64 // the cycles forwarded to it
	start     uint64
	ticked    []int
	charged   []int
	spans     int
	crossing  bool // a charged span crossed a poll boundary
}

func newScriptedPart(rng *rand.Rand, start uint64, busy, wait int, selfGated bool) *scriptedPart {
	p := &scriptedPart{selfGated: selfGated, start: start, forward: map[uint64]bool{}}
	at := start
	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0:
			at += 1 + uint64(rng.Intn(busy)) // a busy stretch
		case 1:
			at += uint64(rng.Intn(wait)) // a wait across poll boundaries
		default:
			at += uint64(rng.Intn(200))
		}
		p.events = append(p.events, at)
		if rng.Intn(3) == 0 {
			p.forward[at] = true
		}
	}
	p.events = slices.Compact(p.events)
	return p
}

func (p *scriptedPart) nextWake(c uint64) uint64 {
	if p.next < len(p.events) {
		return p.events[p.next]
	}
	return mem.NeverWake
}

func (p *scriptedPart) tick(c uint64) {
	p.ticked[c-p.start]++
	for p.next < len(p.events) && p.events[p.next] <= c {
		if e := p.events[p.next]; e == c && p.forward[e] && p.to != nil {
			p.to.post(c)
		}
		p.next++
	}
}

// post adds cycle c to the part's pending events.
func (p *scriptedPart) post(c uint64) {
	p.posted = append(p.posted, c)
	i, found := slices.BinarySearch(p.events[p.next:], c)
	if !found {
		p.events = slices.Insert(p.events, p.next+i, c)
	}
}

func (p *scriptedPart) charge(last, n uint64) {
	if last>>10 != (last-n+1)>>10 {
		p.crossing = true
	}
	for c := last + 1 - n; c <= last; c++ {
		p.charged[c-p.start]++
	}
	p.spans++
}

// TestChargeCoversEveryJumpedCycle runs the loop in every setting of
// Skip and Park over two lists of scripted parts: one part alone, and
// three parts, each forwarding some of its events to the next, the
// last of them self-gated. It records what it ticks and charges of
// each part. Each part's every cycle is ticked
// or charged exactly once, and every due cycle is ticked. With Park
// on, a part that is not self-gated is ticked only on its due cycles,
// forwarded ones included: a part sees the effects of the parts before
// it in the same cycle, and one not due is charged, never ticked. A
// self-gated part, and with Park off every part, ticks on every cycle
// the clock does not jump. Jumps happen only with Skip on, are charged
// to every part, and never cross a poll boundary, where the pollers
// read counters.
func TestChargeCoversEveryJumpedCycle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, skip := range []bool{true, false} {
			for _, park := range []bool{true, false} {
				checkLoopRule(t, seed, skip, park, []script{{3000, false}})
				checkLoopRule(t, seed, skip, park, []script{{3000, false}, {6000, false}, {9000, true}})
			}
		}
	}
}

// script is one scripted part of a list: its longest wait, and whether
// it is self-gated.
type script struct {
	wait      int
	selfGated bool
}

// checkLoopRule runs one list and checks the loop's rule on it. The
// parts wait far longer than they work (the loop jumps 99.7% of the
// cycles at every seed), so with Skip on at least half of the cycles
// must have been jumped.
func checkLoopRule(t *testing.T, seed int64, skip, park bool, list []script) {
	t.Helper()
	name := fmt.Sprintf("seed %d, %d parts, skip=%v park=%v", seed, len(list), skip, park)
	rng := rand.New(rand.NewSource(seed))
	start := uint64(seed * 777)
	cycle := start
	var parts []*scriptedPart
	for i, sc := range list {
		parts = append(parts, newScriptedPart(rng, start, 3, sc.wait, sc.selfGated))
		if i > 0 {
			parts[i-1].to = parts[i]
		}
	}
	var end uint64
	for _, p := range parts {
		end = max(end, p.events[len(p.events)-1]+1)
	}
	var loopParts []Part
	for _, p := range parts {
		p.ticked = make([]int, end-start)
		p.charged = make([]int, end-start)
		loopParts = append(loopParts, Part{Tick: p.tick, NextWake: p.nextWake, Charge: p.charge, SelfGated: p.selfGated})
	}
	l := NewLoop(&cycle, loopParts, Hooks{
		Done:     func() bool { return cycle >= end },
		Progress: func() uint64 { return cycle },
		Diagnose: func(uint64) guard.Diag { return guard.Diag{} },
	})
	l.SetIdleSkip(skip)
	l.SetEventWheel(park)
	if err := Run(context.Background(), &l, 1<<30); err != nil {
		t.Fatal(err)
	}
	if cycle != end {
		t.Fatalf("%s: ran to %d, want %d", name, cycle, end)
	}
	for i, p := range parts {
		if p.crossing {
			t.Fatalf("%s part %d: a charged span crossed a poll boundary", name, i)
		}
		if !skip && !park && p.spans > 0 {
			t.Fatalf("%s part %d: charged %d times with Skip and Park off", name, i, p.spans)
		}
		due := make([]bool, end-start)
		for _, e := range p.events {
			due[e-start] = true
		}
		jumped := uint64(0)
		for c := start; c < end; c++ {
			k := c - start
			ticked, charged := p.ticked[k], p.charged[k]
			if ticked+charged != 1 {
				t.Fatalf("%s part %d cycle %d: ticked %d and charged %d times", name, i, c, ticked, charged)
			}
			if due[k] && ticked != 1 {
				t.Fatalf("%s part %d cycle %d: due and not ticked", name, i, c)
			}
			if park && !p.selfGated && ticked == 1 && !due[k] {
				t.Fatalf("%s part %d cycle %d: ticked, not due", name, i, c)
			}
			// A cycle a part that is ticked whenever the clock does not
			// jump is charged for was jumped.
			if charged == 1 && (!park || p.selfGated) {
				jumped++
			}
		}
		if (!park || p.selfGated) && jumped != l.skipped {
			t.Fatalf("%s part %d: charged %d cycles, the loop jumped %d", name, i, jumped, l.skipped)
		}
		for _, c := range p.posted {
			if p.ticked[c-start] != 1 {
				t.Fatalf("%s part %d: the part before it forwarded cycle %d, which it did not tick", name, i, c)
			}
		}
		if i > 0 && len(p.posted) == 0 {
			t.Fatalf("%s part %d: nothing was forwarded to it", name, i)
		}
	}
	run := end - start
	if skip != (l.skipped > 0) || skip && l.skipped < run/2 {
		t.Fatalf("%s: jumped %d of %d cycles; the script did not wait", name, l.skipped, run)
	}
}
