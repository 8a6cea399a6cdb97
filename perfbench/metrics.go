package main

import (
	"fmt"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them with --trace 0; BENCHMARK.json lists the same
// names (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"p50_ms", "ms"},
}

// perLayer are the traced run's metrics, grouped by the module they
// describe. A workload that does not use a module reports it as 0.
var perLayer = append(selfDefs(), []metricDef{
	// experiments
	{"exp_s.fabric", "s"}, {"exp_s.fabric-degradation", "s"}, {"exp_s.sched-shootout", "s"},
	{"exp_s.kilocore", "s"}, {"exp_s.table6-addr", "s"}, {"exp_s.table6", "s"},
	{"exp_s.table4-ci", "s"}, {"exp_s.fig10", "s"}, {"exp_s.fig11b", "s"},
	{"exp_s.degradation", "s"}, {"exp_s.locality", "s"}, {"exp_s.other", "s"},
	{"exp.tasks", "count"},
	// simulation layer probes
	{"fabric.ns_per_cycle", "ns"}, {"fabric.flits", "count"},
	{"noc.ns_per_cycle", "ns"},
	{"voq.ns_per_cycle.islip", "ns"}, {"voq.ns_per_cycle.wavefront", "ns"},
	{"sched.ns_per_call.islip", "ns"}, {"sched.ns_per_call.wavefront", "ns"},
	{"sim.ns_per_cycle", "ns"}, {"sim.sweep_s", "s"},
	{"manycore.ns_per_cycle", "ns"}, {"cache.ns_per_access", "ns"},
	// serve
	{"http_ms.submit.p50", "ms"}, {"http_ms.status.p50", "ms"}, {"http_ms.result.p50", "ms"},
	{"http_ms.metrics", "ms"}, {"http.polls_per_req", "count"},
	{"queue_ms.p50", "ms"}, {"queue_ms.p90", "ms"}, {"queue.rejected", "count"},
	{"run_ms.p50.cache", "ms"}, {"run_ms.p50.peer", "ms"}, {"run_ms.p50.computed", "ms"},
	{"p50_ms.cache", "ms"}, {"p50_ms.peer", "ms"}, {"p50_ms.computed", "ms"}, {"p50_ms.shared", "ms"},
	// store
	{"store.hits.memory", "count"}, {"store.hits.disk", "count"}, {"store.misses", "count"},
	{"store.shared", "count"}, {"store.write_errors", "count"}, {"store.hit_ratio", "ratio"},
	{"store_us.get.memory", "us"}, {"store_us.get.disk", "us"},
	// cluster
	{"cluster.fetches", "count"}, {"cluster.peer_hits", "count"}, {"cluster.peer_misses", "count"},
	{"cluster.attempts", "count"}, {"cluster.retries", "count"}, {"cluster.failures", "count"},
	{"cluster.hedges", "count"}, {"cluster.hedge_wins", "count"}, {"cluster.breaker_skips", "count"},
	{"cluster.peer_hit_ratio", "ratio"}, {"cluster_ms.store_get.p50", "ms"}, {"compute.dup_share", "ratio"},
	// Go runtime
	{"go.gc_cycles", "count"}, {"go.alloc_mb", "MiB"},
	// generator and benchmark validity
	{"gen.lag_ms.p99", "ms"}, {"gen.conns", "count"}, {"p90_ms", "ms"}, {"p99_ms", "ms"},
	{"trace.overhead_share", "ratio"}, {"failed_share", "ratio"},
}...)

// profiledModules get a self_s metric: CPU seconds the traced run's
// profile attributes to functions of that module (see moduleOf).
var profiledModules = []string{
	"experiments", "fabric", "noc", "sched", "bitvec", "sim", "core", "crossbar",
	"arb", "xpoint", "traffic", "prng", "stats", "topo", "pool", "manycore", "cache",
	"trace", "fault", "serve", "net_http", "encoding_json", "store", "cluster",
	"obs", "tele", "runtime", "bench", "other",
}

func selfDefs() []metricDef {
	defs := make([]metricDef, len(profiledModules))
	for i, m := range profiledModules {
		defs[i] = metricDef{"self_s." + m, "s"}
	}
	return defs
}

// metric is one reported value; n is the number of samples behind it
// (0 for a count or a single measurement).
type metric struct {
	metricDef
	value float64
	n     int
}

// result is what one run reports.
type result struct {
	attempted, failed int
	problems          []string // reasons the run is incorrect or invalid
	metrics           map[string]metric
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

var allDefs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d
	}
	return m
}()

func (r *result) set(name string, v float64, n int) {
	d, ok := allDefs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{metricDef: d, value: v, n: n}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// missing lists the declared metrics of defs the run did not set.
func (r *result) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}
