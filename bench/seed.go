package main

import "hash/fnv"

// rng is splitmix64: every generated input (camera phase, kernel data,
// spec stream, driver address streams) comes from one of these, keyed
// by the run's -seed and a stream name, so the same seed gives the same
// inputs whatever order the generators are called in.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a value in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }
