package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/reprolab/hirise"
)

// campaignExperiments are the experiments that get their own exp_s
// metric: together they take most of a quick campaign's wall time. The
// rest are summed into exp_s.other.
var campaignExperiments = []string{
	"fabric", "fabric-degradation", "sched-shootout", "kilocore", "table6-addr",
	"table6", "table4-ci", "fig10", "fig11b", "degradation", "locality",
}

// campaign runs every registered experiment at quick fidelity, one after
// another in registry order (as hirise-bench -run all does), each with
// nproc simulation workers. Its inputs are fixed: the experiments keep
// their QuickOpts seeds so every table can be checked against its
// reference hash, so the workload seed changes nothing here.
type campaign struct {
	refs map[string]string
	ids  []string
	opts hirise.ExperimentOpts
}

// newCampaign checks that every registered experiment has a reference
// hash.
func newCampaign(refs map[string]string) (*campaign, error) {
	for _, id := range hirise.Experiments() {
		if _, ok := refs[id]; !ok {
			return nil, fmt.Errorf("no reference hash for experiment %s", id)
		}
	}
	return &campaign{refs: refs}, nil
}

// setUp resolves the experiment IDs and the quick-fidelity options:
// everything the program does before the first experiment starts.
func (c *campaign) setUp() error {
	c.ids = hirise.Experiments()
	c.opts = hirise.QuickExperimentOpts()
	return nil
}

func (c *campaign) tearDown() error { return nil }

// measure runs the campaign. Its latencies are completion times: p50_ms
// is when half of the tables were done, p90_ms when nine tenths were.
func (c *campaign) measure(tr *tracer, r *result) error {
	var tasks atomic.Int64
	opts := c.opts
	opts.Workers = runtime.NumCPU()
	opts.Progress = func() { tasks.Add(1) }

	var done samples
	expS := map[string]float64{}
	start := time.Now()
	for _, id := range c.ids {
		var tab *hirise.ExperimentTable
		var err error
		t0 := time.Now()
		tr.timed("experiment "+id, func() {
			tab, err = hirise.RunExperimentCtx(context.Background(), id, opts)
		})
		d := time.Since(t0)
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.3f s\n", id, d.Seconds())
		done = append(done, ms(time.Since(start)))
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.problem("experiment %s: %v", id, err)
		case sha256Hex([]byte(tab.String())) != c.refs[id]:
			r.failed++
			r.problem("experiment %s: table sha256 %s differs from reference %s", id, sha256Hex([]byte(tab.String())), c.refs[id])
		}
		if isNamedExperiment(id) {
			expS["exp_s."+id] += d.Seconds()
		} else {
			expS["exp_s.other"] += d.Seconds()
		}
	}
	r.set("wall_s", time.Since(start).Seconds(), 1)
	r.set("p50_ms", done.quantile(0.5), len(done))
	r.set("p90_ms", done.quantile(0.9), len(done))
	r.set("p99_ms", done.quantile(0.99), len(done))
	for _, id := range campaignExperiments {
		r.set("exp_s."+id, expS["exp_s."+id], 1)
	}
	r.set("exp_s.other", expS["exp_s.other"], len(c.ids)-len(campaignExperiments))
	r.set("exp.tasks", float64(tasks.Load()), 0)
	return nil
}

func isNamedExperiment(id string) bool {
	for _, e := range campaignExperiments {
		if e == id {
			return true
		}
	}
	return false
}
