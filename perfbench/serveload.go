package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reprolab/hirise/internal/cluster"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

// maxLagMs bounds the generator's p99 lateness: a run whose submits
// went out later than this behind schedule did not offer the load it
// claims, and is reported invalid instead of scored.
const maxLagMs = 250.0

// maxListed is how many unserved requests a run lists one by one.
const maxListed = 5

// serveBench is the serve-hot and serve-cluster workloads: daemons in
// this process, an open-loop schedule from the seed, and nproc client
// connections.
type serveBench struct {
	name    string
	nodes   int
	dir     string // parent of every set-up's store directories
	refs    map[string]string
	sched   schedule
	bodies  map[int][]byte // request body of every scheduled spec
	setups  int
	running []*node
	runDir  string
}

func newServeBench(name string, seed uint64, span time.Duration, dir string, refs map[string]string) (*serveBench, error) {
	b := &serveBench{name: name, dir: dir, refs: refs, bodies: map[int][]byte{}}
	var spec func(i int) serve.Request
	switch name {
	case "serve-hot":
		b.nodes, spec = 1, hotSpec
		b.sched = hotSchedule(seed, span)
	case "serve-cluster":
		b.nodes, spec = clusterNodes, clusterSpec
		var err error
		if b.sched, err = clusterSchedule(seed, span); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown serve workload %q", name)
	}
	for _, a := range b.sched {
		if _, ok := b.bodies[a.Spec]; !ok {
			body, err := json.Marshal(spec(a.Spec))
			if err != nil {
				return nil, err
			}
			b.bodies[a.Spec] = body
		}
	}
	return b, nil
}

// setUp starts the daemons on fresh stores. serve-hot then fills its
// store with every spec of its universe, in index order, checking each
// result against its reference; serve-cluster probes peer health so
// every breaker starts closed.
func (b *serveBench) setUp() error {
	b.setups++
	b.runDir = filepath.Join(b.dir, fmt.Sprintf("%s-%d", b.name, b.setups))
	if err := os.RemoveAll(b.runDir); err != nil {
		return err
	}
	nodes, err := startNodes(b.runDir, b.nodes)
	if err != nil {
		return err
	}
	b.running = nodes
	if b.nodes == 1 {
		specs := make([]serve.Request, hotSpecs)
		for i := range specs {
			specs[i] = hotSpec(i)
		}
		c := newClient(nodes[0].url, &connCounter{})
		defer c.close()
		return submitAll(c, specs, func(i int, key string, data []byte) error {
			if want := b.refs[key]; sha256Hex(data) != want {
				return fmt.Errorf("setup: spec %d (key %s) result differs from reference %q", i, key, want)
			}
			return nil
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range nodes {
		nd.cl.ProbeOnce(ctx)
		for _, p := range nd.cl.Snapshot().Peers {
			if p.State != "closed" {
				return fmt.Errorf("setup: node %s sees peer %s %s after a probe", nd.id, p.ID, p.State)
			}
		}
	}
	return nil
}

func (b *serveBench) tearDown() error {
	err := stopNodes(b.running)
	b.running = nil
	if rerr := os.RemoveAll(b.runDir); err == nil {
		err = rerr
	}
	return err
}

// counters is one scrape of every node, summed.
type counters struct {
	prom    map[string]float64
	cluster cluster.Stats
}

func (b *serveBench) scrapeAll(cs []*client, metricsMs *samples) (counters, error) {
	out := counters{prom: map[string]float64{}}
	for i := range b.running {
		c := cs[i]
		n := len(c.rpc["metrics"])
		m, err := scrape(c)
		if err != nil {
			return out, err
		}
		*metricsMs = append(*metricsMs, c.rpc["metrics"][n:]...)
		for k, v := range m {
			out.prom[k] += v
		}
		if b.nodes > 1 {
			st, err := scrapeCluster(c)
			if err != nil {
				return out, err
			}
			out.cluster = addClusterStats(out.cluster, st)
		}
	}
	return out, nil
}

func addClusterStats(a, b cluster.Stats) cluster.Stats {
	a.Fetches += b.Fetches
	a.PeerHits += b.PeerHits
	a.PeerMisses += b.PeerMisses
	a.Attempts += b.Attempts
	a.Retries += b.Retries
	a.Failures += b.Failures
	a.Hedges += b.Hedges
	a.HedgeWins += b.HedgeWins
	a.BreakerSkips += b.BreakerSkips
	return a
}

func (b *serveBench) measure(tr *tracer, r *result) error {
	lr := &loadRun{nodes: b.running, refs: b.refs, traced: tr != nil}
	for i, a := range b.sched {
		lr.reqs = append(lr.reqs, &request{idx: i, arr: a, body: b.bodies[a.Spec]})
	}

	if err := lr.connect(runtime.NumCPU()); err != nil {
		return err
	}
	defer func() {
		for _, c := range lr.clients {
			c.close()
		}
	}()
	// Scrapes go through each node's submitting connection, so they add
	// no connection to the generator's count.
	var metricsMs samples
	var before counters
	if tr != nil {
		var err error
		if before, err = b.scrapeAll(lr.clients, &metricsMs); err != nil {
			return err
		}
	}
	lr.run()

	var lat, lag samples
	byProv := map[string]samples{}
	var lastEnd time.Time
	for _, q := range lr.reqs {
		r.attempted++
		if !q.sent.IsZero() {
			lag = append(lag, ms(q.sent.Sub(q.due)))
		}
		end := q.finished
		if end.IsZero() {
			end = q.observed
		}
		if end.After(lastEnd) {
			lastEnd = end
		}
		if q.outcome != outcomeDone {
			r.failed++
			if r.failed <= maxListed {
				r.problem("request %d %s: %s", q.idx, q.outcome, q.detail)
			}
			continue
		}
		l := ms(q.finished.Sub(q.due))
		lat = append(lat, l)
		byProv[q.prov] = append(byProv[q.prov], l)
	}
	if r.failed > maxListed {
		r.problem("%d more requests not served", r.failed-maxListed)
	}
	if lastEnd.IsZero() {
		lastEnd = lr.start
	}
	r.set("wall_s", lastEnd.Sub(lr.start).Seconds(), 1)
	r.set("p50_ms", lat.quantile(0.5), len(lat))
	r.set("p90_ms", lat.quantile(0.9), len(lat))
	r.set("p99_ms", lat.quantile(0.99), len(lat))
	for _, p := range []string{"cache", "peer", "computed", "shared"} {
		r.set("p50_ms."+p, byProv[p].quantile(0.5), len(byProv[p]))
	}
	lagP99 := lag.quantile(0.99)
	conns := lr.cc.peakConns()
	r.set("gen.lag_ms.p99", lagP99, len(lag))
	r.set("gen.conns", float64(conns), 0)
	if lagP99 > maxLagMs {
		r.problem("invalid run: generator p99 lag %.1f ms exceeds %.0f ms", lagP99, maxLagMs)
	}
	if conns > runtime.NumCPU() {
		r.problem("invalid run: generator used %d connections, more than nproc = %d", conns, runtime.NumCPU())
	}
	if tr == nil {
		return nil
	}

	after, err := b.scrapeAll(lr.clients, &metricsMs)
	if err != nil {
		return err
	}
	b.layerMetrics(lr, before, after, metricsMs, r)
	if b.nodes > 1 {
		if err := b.probeFetch(lr, tr, r); err != nil {
			return err
		}
	}
	b.spans(lr, tr)
	return nil
}

// layerMetrics derives the serve, store and cluster metrics of a traced
// run from the client's own records and the counter deltas.
func (b *serveBench) layerMetrics(lr *loadRun, before, after counters, metricsMs samples, r *result) {
	rpc := map[string]samples{}
	for _, c := range lr.clients {
		for k, v := range c.rpc {
			rpc[k] = append(rpc[k], v...)
		}
	}
	for _, k := range []string{"submit", "status", "result"} {
		r.set("http_ms."+k+".p50", rpc[k].quantile(0.5), len(rpc[k]))
	}
	r.set("http_ms.metrics", metricsMs.quantile(0.5), len(metricsMs))

	var queue samples
	runBy := map[string]samples{}
	polls, done := 0, 0
	computed := map[string]int{}
	nComputed := 0
	for _, q := range lr.reqs {
		polls += q.polls
		if q.outcome != outcomeDone {
			continue
		}
		done++
		queue = append(queue, ms(q.started.Sub(q.created)))
		runBy[q.prov] = append(runBy[q.prov], ms(q.finished.Sub(q.started)))
		if q.prov == "computed" {
			computed[q.key]++
			nComputed++
		}
	}
	r.set("http.polls_per_req", ratio(float64(polls), float64(done)), done)
	r.set("queue_ms.p50", queue.quantile(0.5), len(queue))
	r.set("queue_ms.p90", queue.quantile(0.9), len(queue))
	for _, p := range []string{"cache", "peer", "computed"} {
		r.set("run_ms.p50."+p, runBy[p].quantile(0.5), len(runBy[p]))
	}
	r.set("compute.dup_share", ratio(float64(nComputed-len(computed)), float64(nComputed)), nComputed)

	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	r.set("queue.rejected", d("serve_jobs_rejected"), 0)
	mem, disk, miss := d("store_hits_memory"), d("store_hits_disk"), d("store_misses")
	r.set("store.hits.memory", mem, 0)
	r.set("store.hits.disk", disk, 0)
	r.set("store.misses", miss, 0)
	r.set("store.shared", d("store_inflight_shared"), 0)
	r.set("store.write_errors", d("store_write_errors"), 0)
	r.set("store.hit_ratio", ratio(mem+disk, mem+disk+miss), 0)

	cb, ca := before.cluster, after.cluster
	r.set("cluster.fetches", float64(ca.Fetches-cb.Fetches), 0)
	r.set("cluster.peer_hits", float64(ca.PeerHits-cb.PeerHits), 0)
	r.set("cluster.peer_misses", float64(ca.PeerMisses-cb.PeerMisses), 0)
	r.set("cluster.attempts", float64(ca.Attempts-cb.Attempts), 0)
	r.set("cluster.retries", float64(ca.Retries-cb.Retries), 0)
	r.set("cluster.failures", float64(ca.Failures-cb.Failures), 0)
	r.set("cluster.hedges", float64(ca.Hedges-cb.Hedges), 0)
	r.set("cluster.hedge_wins", float64(ca.HedgeWins-cb.HedgeWins), 0)
	r.set("cluster.breaker_skips", float64(ca.BreakerSkips-cb.BreakerSkips), 0)
	r.set("cluster.peer_hit_ratio", ratio(float64(ca.PeerHits-cb.PeerHits), float64(ca.Fetches-cb.Fetches)), 0)
}

// probeFetch times the cluster layer's Fetch from the first node for
// keys the second node computed, after the measured phase: the cost of
// one peer store read across the cluster.
func (b *serveBench) probeFetch(lr *loadRun, tr *tracer, r *result) error {
	seen := map[string]bool{}
	var times samples
	for _, q := range lr.reqs {
		if q.outcome != outcomeDone || q.arr.Node != 1 || q.prov != "computed" || seen[q.key] {
			continue
		}
		seen[q.key] = true
		key, err := store.ParseKey(q.key)
		if err != nil {
			return err
		}
		var data []byte
		var ok bool
		t0 := time.Now()
		tr.timed("probe cluster fetch", func() {
			data, _, ok = b.running[0].cl.Fetch(context.Background(), key)
		})
		times = append(times, ms(time.Since(t0)))
		if !ok || sha256Hex(data) != b.refs[q.key] {
			r.problem("cluster fetch of %s from %s: ok=%v, bytes differ from reference", q.key, b.running[1].id, ok)
		}
	}
	r.set("cluster_ms.store_get.p50", times.quantile(0.5), len(times))
	return nil
}

// spans turns every request into a span from its due time to its
// server-reported finish, with the HTTP calls the client made and the
// server's queue and run intervals as children.
func (b *serveBench) spans(lr *loadRun, tr *tracer) {
	for _, q := range lr.reqs {
		end := q.finished
		if end.IsZero() {
			end = q.observed
		}
		if end.IsZero() {
			end = q.sent
		}
		name := "request " + q.outcome
		if q.prov != "" {
			name += " " + q.prov
		}
		lane := q.idx + 1
		id := tr.add(name, q.due, end, 0, int64(q.idx+1), lane)
		for _, s := range q.rpcs {
			tr.add(s.name, s.start, s.end, id, int64(q.idx+1), lane)
		}
		if !q.started.IsZero() {
			tr.add("queue", q.created, q.started, id, int64(q.idx+1), lane)
			tr.add("run "+q.prov, q.started, q.finished, id, int64(q.idx+1), lane)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
