// Package sweep implements the simulation sweep service: canonical job
// specs whose deterministic JSON encoding is SHA-256-hashed into
// content-addressed result keys, an on-disk result store, a robust job
// runner (bounded worker pool, per-job timeouts threaded into the
// simulation tick loops, panic isolation, bounded retry with
// exponential backoff, graceful drain), and the HTTP surface served by
// cmd/emeraldd and consumed by cmd/sweep.
//
// The content-addressed cache is sound because a simulation point is a
// pure function of its spec (each job runs on a private system, on one
// goroutine), so a stored result can be returned byte-for-byte in place
// of a rerun.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"emerald/internal/exp"
	"emerald/internal/geom"
	"emerald/internal/soc"
)

// Kind identifies a job's unit of simulation work.
type Kind string

// Job kinds.
const (
	// KindCS1 runs one Case Study I cell (model x mem config x DRAM
	// rate) on the full SoC and yields soc.Results.
	KindCS1 Kind = "cs1"
	// KindCS2Sweep runs one Case Study II WT sweep (workload, WT sizes
	// 1..MaxWT) on the standalone GPU and yields per-WT frame cycles.
	KindCS2Sweep Kind = "cs2sweep"
	// KindCS2Policy runs one workload under one Figure 19 policy and
	// yields the average frame cycles.
	KindCS2Policy Kind = "cs2policy"
	// KindRegion runs one sampled-simulation region: re-record the
	// workload's trace, functional-pass to the region's checkpoint,
	// then run Span frames from Region in detailed timing. Everything
	// derives deterministically from the spec, so region results are
	// content-addressable and fleet-schedulable like any other job.
	KindRegion Kind = "region"
)

// Spec is the canonical description of one simulation job. Its
// canonical JSON encoding (fixed field order, irrelevant fields zeroed
// — see Canonical) hashes into the job's content-addressed result key.
type Spec struct {
	Kind  Kind   `json:"kind"`
	Scale string `json:"scale"` // smoke|quick|paper (exp.Smoke/Quick/Paper)

	// Case Study I (kind=cs1).
	Model  int    `json:"model,omitempty"`  // 1..4 (Table 8 models)
	Config string `json:"config,omitempty"` // BAS|DCB|DTB|HMC (Table 6)
	Mbps   int    `json:"mbps,omitempty"`   // DRAM data rate (Mb/s/pin)

	// Case Study II (kind=cs2sweep, cs2policy, region).
	Workload int    `json:"workload,omitempty"` // 1..6 (Table 8 workloads)
	Policy   string `json:"policy,omitempty"`   // MLB|MLC|SOPT|DFSL (cs2policy)
	SOPT     int    `json:"sopt,omitempty"`     // static WT when Policy=SOPT

	// Sampled simulation (kind=region).
	Frames int `json:"frames,omitempty"` // scenario length in frames
	Region int `json:"region,omitempty"` // first detailed frame (0-based)
	Span   int `json:"span,omitempty"`   // detailed frames from Region

	// Workers is accepted and ignored: a job is one simulation, which
	// runs on one goroutine, and RunnerConfig.Workers sets how many jobs
	// run at once. The field stays so specs that carry it still decode;
	// it is not part of the result key.
	Workers int `json:"workers,omitempty"`
}

// ScaleOptions maps a Spec.Scale name to experiment options.
func ScaleOptions(scale string) (exp.Options, error) {
	return exp.ByScale(scale)
}

// Validate checks the spec describes a runnable job.
func (s Spec) Validate() error {
	if _, err := ScaleOptions(s.Scale); err != nil {
		return err
	}
	switch s.Kind {
	case KindCS1:
		if _, err := geom.SoCModelName(s.Model); err != nil {
			return fmt.Errorf("sweep: cs1 job: %w", err)
		}
		if _, err := exp.ParseMemConfig(s.Config); err != nil {
			return fmt.Errorf("sweep: cs1 job: %w", err)
		}
		if s.Mbps <= 0 {
			return fmt.Errorf("sweep: cs1 job: mbps must be positive, got %d", s.Mbps)
		}
	case KindCS2Sweep:
		if _, err := geom.DFSLWorkloadName(s.Workload); err != nil {
			return fmt.Errorf("sweep: cs2sweep job: %w", err)
		}
	case KindCS2Policy:
		if _, err := geom.DFSLWorkloadName(s.Workload); err != nil {
			return fmt.Errorf("sweep: cs2policy job: %w", err)
		}
		p, err := exp.ParseDFSLPolicy(s.Policy)
		if err != nil {
			return fmt.Errorf("sweep: cs2policy job: %w", err)
		}
		if p == exp.SOPT && s.SOPT < 1 {
			return fmt.Errorf("sweep: cs2policy job: SOPT policy needs sopt >= 1, got %d", s.SOPT)
		}
	case KindRegion:
		if _, err := geom.DFSLWorkloadName(s.Workload); err != nil {
			return fmt.Errorf("sweep: region job: %w", err)
		}
		if s.Frames < 1 {
			return fmt.Errorf("sweep: region job: frames must be >= 1, got %d", s.Frames)
		}
		if s.Region < 0 || s.Region >= s.Frames {
			return fmt.Errorf("sweep: region job: region %d out of range [0,%d)", s.Region, s.Frames)
		}
		if s.Span < 1 {
			return fmt.Errorf("sweep: region job: span must be >= 1, got %d", s.Span)
		}
	default:
		return fmt.Errorf("sweep: unknown job kind %q (want cs1|cs2sweep|cs2policy|region)", s.Kind)
	}
	return nil
}

// Canonical returns the spec with every field that does not affect the
// simulation result zeroed: Workers always (it is ignored), and the
// fields of the other case study.
func (s Spec) Canonical() Spec {
	c := Spec{Kind: s.Kind, Scale: s.Scale}
	switch s.Kind {
	case KindCS1:
		c.Model, c.Config, c.Mbps = s.Model, s.Config, s.Mbps
	case KindCS2Sweep:
		c.Workload = s.Workload
	case KindCS2Policy:
		c.Workload, c.Policy = s.Workload, s.Policy
		if s.Policy == exp.SOPT.String() {
			c.SOPT = s.SOPT
		}
	case KindRegion:
		c.Workload, c.Frames, c.Region, c.Span = s.Workload, s.Frames, s.Region, s.Span
	}
	return c
}

// Key derives the content-addressed result key: the lowercase-hex
// SHA-256 of the canonical spec's JSON encoding (encoding/json emits
// struct fields in declaration order, so the encoding is deterministic).
func (s Spec) Key() string {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		// Spec is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String returns a short human label, e.g. "cs1/M2/BAS/1333/quick".
func (s Spec) String() string {
	switch s.Kind {
	case KindCS1:
		return fmt.Sprintf("cs1/M%d/%s/%d/%s", s.Model, s.Config, s.Mbps, s.Scale)
	case KindCS2Sweep:
		return fmt.Sprintf("cs2sweep/W%d/%s", s.Workload, s.Scale)
	case KindCS2Policy:
		if s.Policy == exp.SOPT.String() {
			return fmt.Sprintf("cs2policy/W%d/%s(WT%d)/%s", s.Workload, s.Policy, s.SOPT, s.Scale)
		}
		return fmt.Sprintf("cs2policy/W%d/%s/%s", s.Workload, s.Policy, s.Scale)
	case KindRegion:
		return fmt.Sprintf("region/W%d/%df/%d+%d/%s", s.Workload, s.Frames, s.Region, s.Span, s.Scale)
	}
	return fmt.Sprintf("%s/%s", s.Kind, s.Scale)
}

// Result is the stored output of one job. Exactly one payload field is
// set, matching the spec's kind.
type Result struct {
	Spec Spec `json:"spec"`

	// CS1 holds a Case Study I cell summary (kind=cs1).
	CS1 *soc.Results `json:"cs1,omitempty"`
	// Cycles holds per-WT frame execution cycles (kind=cs2sweep).
	Cycles []uint64 `json:"cycles,omitempty"`
	// AvgCycles holds the average frame cycles (kind=cs2policy).
	AvgCycles float64 `json:"avg_cycles,omitempty"`
	// Region holds a sampled-simulation region measurement (kind=region).
	Region *exp.RegionResult `json:"region,omitempty"`
}
