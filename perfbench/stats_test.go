package main

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileNearestRank checks quantile against the textbook
// nearest-rank definition evaluated on an exact sorted reference: the
// q-quantile is the smallest sample with at least ceil(q*n) samples at
// or below it.
func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.75, 3},
		{[]float64{4, 3, 2, 1}, 1, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 90},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.99, 100},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.01, 10},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := samples(c.in).quantile(c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		s := make(samples, n)
		for i := range s {
			s[i] = rng.ExpFloat64()
		}
		ref := append([]float64(nil), s...)
		sort.Float64s(ref)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got := s.quantile(q)
			// At least ceil(q*n) samples are <= got, and fewer than that
			// are strictly below it.
			atOrBelow, below := 0, 0
			for _, v := range ref {
				if v <= got {
					atOrBelow++
				}
				if v < got {
					below++
				}
			}
			need := 0
			for need < n && float64(need) < q*float64(n) {
				need++
			}
			if atOrBelow < need || below >= need {
				t.Fatalf("n=%d q=%v: got %v with %d at or below, %d below; need rank %d", n, q, got, atOrBelow, below, need)
			}
		}
	}
}
