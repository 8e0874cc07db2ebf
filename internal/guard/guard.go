// Package guard is the self-diagnosis layer of the simulator: opt-in
// microarchitectural invariant checking and forward-progress watchdog
// support, plus the structured diagnostic bundle both attach to their
// failures.
//
// It follows the same discipline as emtrace: hardware models hold a
// plain *Checker that is usually nil, every method is nil-receiver-safe,
// and the disabled path costs a single predictable branch per call. The
// package depends on nothing but the standard library, so every model
// package (simt, cache, dram, interconnect, soc, gpu) can import it
// without cycles.
//
// Usage: a run harness creates a Checker, the system's AttachGuard
// methods register invariant probes into it, and the system calls Tick
// once per system cycle at the end of its own Tick, after every
// component has ticked. Run loops poll Err and abort on the first
// violation instead of simulating onward from corrupt state.
package guard

import (
	"errors"
	"fmt"
)

// ErrInvariant is the sentinel wrapped by every invariant-violation
// error: errors.Is(err, guard.ErrInvariant) identifies them.
var ErrInvariant = errors.New("guard: invariant violated")

// Violation records one failed invariant probe.
type Violation struct {
	Cycle  uint64
	Source string // hardware layer: simt, cache, dram, noc, ...
	Name   string // probe name, e.g. "core0_0.l1d.mshr"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s/%s: %s", v.Cycle, v.Source, v.Name, v.Detail)
}

// probe is one registered invariant check. fn returns nil while the
// invariant holds.
type probe struct {
	source, name string
	fn           func(cycle uint64) error
}

// maxViolations bounds the recorded violation list: the first failure
// is the interesting one, and a broken invariant often fails every
// cycle thereafter.
const maxViolations = 16

// Checker runs registered invariant probes at every Tick and records
// violations. A nil *Checker is a valid no-op: Register, Tick and Err
// are all safe (and branch-cheap) on nil, so models and run loops hold
// bare fields with no guards.
//
// Not safe for concurrent use: Tick runs on the system's goroutine, at
// the end of the system Tick.
type Checker struct {
	probes     []probe
	violations []Violation
}

// NewChecker returns an empty enabled checker.
func NewChecker() *Checker { return &Checker{} }

// Enabled reports whether invariant checking is armed.
func (g *Checker) Enabled() bool { return g != nil }

// Register adds an invariant probe. No-op on a nil checker, so models
// can call it unconditionally from AttachGuard plumbing.
func (g *Checker) Register(source, name string, fn func(cycle uint64) error) {
	if g == nil || fn == nil {
		return
	}
	g.probes = append(g.probes, probe{source: source, name: name, fn: fn})
}

// Tick runs every registered probe for the given cycle, recording
// failures (up to maxViolations).
func (g *Checker) Tick(cycle uint64) {
	if g == nil {
		return
	}
	for i := range g.probes {
		p := &g.probes[i]
		if err := p.fn(cycle); err != nil {
			if len(g.violations) < maxViolations {
				g.violations = append(g.violations, Violation{
					Cycle: cycle, Source: p.source, Name: p.name, Detail: err.Error(),
				})
			}
		}
	}
}

// Violations returns the recorded violations (nil when none).
func (g *Checker) Violations() []Violation {
	if g == nil {
		return nil
	}
	return g.violations
}

// Err returns nil while every invariant holds, or an error (wrapping
// ErrInvariant) describing the first violation and the total count.
func (g *Checker) Err() error {
	if g == nil || len(g.violations) == 0 {
		return nil
	}
	v := g.violations[0]
	return fmt.Errorf("%w: %s (%d violation(s) recorded)", ErrInvariant, v, len(g.violations))
}
