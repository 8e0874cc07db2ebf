package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; 0 for an
// empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: below that the "tail" is one or two outliers.
const tailSamples = 10

// tailPercentile is the highest whole percentile of n samples that has
// at least tailSamples samples beyond it, or 0 when n is too small for
// any tail above the median (n < 2*tailSamples).
func tailPercentile(n int) int {
	if n < 2*tailSamples {
		return 0
	}
	return int(math.Floor(100 * (1 - float64(tailSamples)/float64(n))))
}

// tail reports the workload's fixed tail percentile of xs, or ok=false
// when xs holds too few samples for it (tailPercentile(len) < p).
func tail(xs []float64, p int) (v float64, ok bool) {
	if p <= 0 || tailPercentile(len(xs)) < p {
		return 0, false
	}
	return percentile(xs, float64(p)), true
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise figure the acceptance runs
// and `bench compare` use. It follows Python's
// statistics.quantiles(xs, n=4) (exclusive method), which is what the
// driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile cut, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
