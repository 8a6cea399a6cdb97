package main

import (
	"math"
	"sort"
)

// samples is a list of exact per-operation measurements. Quantiles are
// read by nearest rank over the sorted values, never from a binned
// histogram: the service's obs.Histogram has 25 ms bins, far wider than
// the hot path's sub-millisecond latencies.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample such that at least q of all samples are <= it. It
// returns 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the nearest-rank median.
func (s samples) median() float64 { return s.quantile(0.5) }
