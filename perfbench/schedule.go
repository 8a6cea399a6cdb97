package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/reprolab/hirise/internal/prng"
)

// arrival is one request of an open-loop schedule: it is due at offset
// At from the start of the measured phase, asks for spec Spec of the
// workload's fixed spec universe, and goes to node Node.
type arrival struct {
	At   time.Duration
	Spec int
	Node int
}

// schedule is a whole open-loop arrival sequence, computed up front from
// the seed so that neither the system's speed nor the generator's
// progress can change what is sent or when.
type schedule []arrival

// Serve workload shapes. The rates are open-loop offered loads; see
// README.md for the measurements they were sized from.
const (
	hotRate     = 800.0 // requests per second
	hotSpecs    = 1024  // distinct specs the hot store holds
	clusterRate = 5.0   // requests per second over both nodes
	// clusterSpecs bounds the cluster workload's spec universe; a run
	// draws clusterRate/clusterBlock new specs per second from it, so
	// 512 covers runs of up to 500 s.
	clusterSpecs = 512
	// clusterBlock arrivals carry exactly one new spec.
	clusterBlock = 5
	// clusterRecent is how many of the most recent new specs a repeat
	// arrival draws from.
	clusterRecent = 8
	clusterNodes  = 2
)

// hotSchedule draws Poisson arrivals at hotRate over the given span.
// Specs follow Zipf(1) over the hotSpecs universe, with the popularity
// order itself a seeded permutation, so each seed has its own hot set.
func hotSchedule(seed uint64, span time.Duration) schedule {
	rng := prng.New(seed ^ 0x686f74) // "hot"
	order := rng.Perm(hotSpecs)
	cdf := make([]float64, hotSpecs)
	total := 0.0
	for r := range cdf {
		total += 1 / float64(r+1)
		cdf[r] = total
	}
	var s schedule
	t := 0.0
	for {
		t += rng.Exp(1 / hotRate)
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return s
		}
		u := rng.Float64() * total
		rank := sort.SearchFloat64s(cdf, u)
		if rank >= hotSpecs {
			rank = hotSpecs - 1
		}
		s = append(s, arrival{At: at, Spec: order[rank]})
	}
}

// clusterSchedule spreads rate*span arrivals over the span, one in
// each 1/clusterRate slot at a uniformly random offset. The first
// arrival of every block of clusterBlock slots is a new spec, the next
// unseen one of a seeded walk through the clusterSpecs universe, and new
// specs alternate between the nodes. Every other arrival repeats one of
// the clusterRecent most recent new specs at a random node. Fixed
// compute slots keep two computations from overlapping, so the compute
// load and its interference with the hits are the same from seed to
// seed, and the latency quantiles compare runs rather than arrival
// bursts.
func clusterSchedule(seed uint64, span time.Duration) (schedule, error) {
	rng := prng.New(seed ^ 0x636c7573) // "clus"
	order := rng.Perm(clusterSpecs)
	n := int(span.Seconds() * clusterRate)
	if n/clusterBlock+1 > clusterSpecs {
		return nil, fmt.Errorf("cluster schedule needs more than %d specs; shorten --seconds", clusterSpecs)
	}
	s := make(schedule, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		at := time.Duration((float64(i) + rng.Float64()) / clusterRate * float64(time.Second))
		if i%clusterBlock == 0 {
			s = append(s, arrival{At: at, Spec: order[next], Node: next % clusterNodes})
			next++
			continue
		}
		lo := max(next-clusterRecent, 0)
		s = append(s, arrival{At: at, Spec: order[lo+rng.Intn(next-lo)], Node: rng.Intn(clusterNodes)})
	}
	return s, nil
}
