package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/hirise/internal/cluster"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

// hotSpec is spec i of the serve-hot universe: a small 2-D crossbar
// sweep, cheap enough that setup can compute all hotSpecs of them.
func hotSpec(i int) serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: "2d", Radix: 8,
		Loads:  []float64{0.05 * float64(1+i%16)},
		Warmup: 100, Measure: 400, Seed: uint64(1 + i/16),
	}
}

// clusterSpec is spec i of the serve-cluster universe: a paper-default
// Hi-Rise load sweep (radix 64, 4 layers, CLRG) of four loads.
func clusterSpec(i int) serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: "hirise", Radix: 64, Layers: 4, Scheme: "clrg",
		Loads:  []float64{0.1, 0.2, 0.3, 0.4},
		Warmup: 1000, Measure: 4000, Seed: uint64(1 + i),
	}
}

// node is one in-process hirise-served daemon, built with the same
// constructors and defaults as cmd/hirise-served, on a 127.0.0.1
// listener.
type node struct {
	id   string
	url  string
	st   *store.Store
	cl   *cluster.Cluster
	srv  *serve.Server
	hs   *http.Server
	done chan error
}

// startNodes starts n daemons with stores under dir. With n > 1 they
// form a static cluster.
func startNodes(dir string, n int) ([]*node, error) {
	lns := make([]net.Listener, n)
	var peers []cluster.Peer
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers = append(peers, cluster.Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()})
	}
	nodes := make([]*node, 0, n)
	for i, ln := range lns {
		nd, err := startNode(filepath.Join(dir, peers[i].ID), ln, peers[i], peers)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func startNode(dir string, ln net.Listener, self cluster.Peer, peers []cluster.Peer) (*node, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	nd := &node{id: self.ID, url: self.URL, st: st, done: make(chan error, 1)}
	if len(peers) > 1 {
		// The hirise-served flag defaults.
		nd.cl, err = cluster.New(cluster.Config{
			Self: self.ID, Peers: peers,
			AttemptTimeout: 2 * time.Second, Retries: 1, HedgeDelay: 100 * time.Millisecond,
			BreakerThreshold: 3, BreakerCooldown: 5 * time.Second, ProbeInterval: 2 * time.Second,
			Seed: 1,
		})
		if err != nil {
			return nil, err
		}
	}
	nd.srv, err = serve.New(serve.Config{
		Store: st, QueueDepth: 64, Workers: 1, SimWorkers: runtime.GOMAXPROCS(0), Cluster: nd.cl,
	})
	if err != nil {
		if nd.cl != nil {
			nd.cl.Close()
		}
		return nil, err
	}
	nd.hs = serve.NewHTTPServer(ln.Addr().String(), nd.srv.Handler(), serve.HTTPTimeouts{})
	go func() { nd.done <- nd.hs.Serve(ln) }()
	return nd, nil
}

// stop drains the daemon the way hirise-served does on SIGTERM and
// waits for its listener goroutine.
func (nd *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := nd.hs.Shutdown(ctx)
	if derr := nd.srv.Drain(ctx); err == nil {
		err = derr
	}
	if nd.cl != nil {
		nd.cl.Close()
	}
	if serr := <-nd.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

func stopNodes(nodes []*node) error {
	var first error
	for _, nd := range nodes {
		if err := nd.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// connCounter counts the load generator's open TCP connections.
type connCounter struct {
	mu         sync.Mutex
	open, peak int
}

func (cc *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	cc.open++
	if cc.open > cc.peak {
		cc.peak = cc.open
	}
	cc.mu.Unlock()
	return &countedConn{Conn: conn, cc: cc}, nil
}

func (cc *connCounter) peakConns() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.peak
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.cc.mu.Lock()
		c.cc.open--
		c.cc.mu.Unlock()
	})
	return c.Conn.Close()
}

// client is one HTTP connection of the load generator, used by one
// goroutine at a time.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	rpc  map[string]samples // call kind -> client-side times (ms)
}

func newClient(base string, cc *connCounter) *client {
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     1,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: 30 * time.Second},
		tr:   tr,
		base: base,
		rpc:  map[string]samples{},
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call makes one request and reads the whole body; kind names the call
// for the per-kind timing.
func (c *client) call(kind, method, path string, body []byte) (int, []byte, time.Time, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, time.Time{}, time.Time{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, start, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.rpc[kind] = append(c.rpc[kind], ms(end.Sub(start)))
	return resp.StatusCode, data, start, end, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Request outcomes. Only outcomeDone counts as served.
const (
	outcomeDone     = "done"
	outcomeRefused  = "refused"  // 429 at submit
	outcomeFailed   = "failed"   // submit error or a failed/cancelled/timeout job
	outcomeLost     = "lost"     // not terminal before the drain deadline
	outcomeMismatch = "mismatch" // result bytes differ from the reference
	outcomeBadTime  = "bad-time" // finished outside [due, observed]
)

// rpcSpan is one HTTP call made for a request, kept for the trace.
type rpcSpan struct {
	name       string
	start, end time.Time
}

// request is one scheduled arrival and everything observed about it.
type request struct {
	idx  int
	arr  arrival
	body []byte
	due  time.Time

	sent     time.Time // when the submit was sent
	jobID    string
	key      string
	polls    int
	delay    time.Duration
	nextPoll time.Time

	outcome                    string
	detail                     string
	prov                       string // cache, peer, computed, shared
	observed                   time.Time
	created, started, finished time.Time
	rpcs                       []rpcSpan
}

// pollQueue holds one node's submitted, unfinished requests ordered by
// next poll time.
type pollQueue struct {
	mu          sync.Mutex
	h           reqHeap
	outstanding int
	submitting  bool
	wake        chan struct{}
}

type reqHeap []*request

func (h reqHeap) Len() int           { return len(h) }
func (h reqHeap) Less(i, j int) bool { return h[i].nextPoll.Before(h[j].nextPoll) }
func (h reqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *reqHeap) Push(x any)        { *h = append(*h, x.(*request)) }
func (h *reqHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

func (q *pollQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// push queues r for a poll at r.nextPoll; fresh marks a newly submitted
// request.
func (q *pollQueue) push(r *request, fresh bool) {
	q.mu.Lock()
	heap.Push(&q.h, r)
	if fresh {
		q.outstanding++
	}
	q.mu.Unlock()
	q.signal()
}

func (q *pollQueue) resolved() {
	q.mu.Lock()
	q.outstanding--
	q.mu.Unlock()
	q.signal()
}

func (q *pollQueue) doneSubmitting() {
	q.mu.Lock()
	q.submitting = false
	q.mu.Unlock()
	q.signal()
}

// pop returns a request whose poll is due, or else the next poll time
// (zero when none is queued) and whether the node has no work left.
func (q *pollQueue) pop(now time.Time) (*request, time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) > 0 {
		if top := q.h[0]; !top.nextPoll.After(now) {
			return heap.Pop(&q.h).(*request), time.Time{}, false
		}
		return nil, q.h[0].nextPoll, false
	}
	return nil, time.Time{}, !q.submitting && q.outstanding == 0
}

// Poll cadence: the first status poll follows the submit by firstPoll,
// later ones back off to maxPoll. Latency is read from the server's own
// finished timestamp, so the cadence does not quantize it.
const (
	firstPoll = time.Millisecond
	maxPoll   = 32 * time.Millisecond
	// drainLimit is how long after the last arrival unfinished requests
	// may still complete before they count as lost.
	drainLimit = 60 * time.Second
)

// loadRun drives one open-loop schedule against a set of nodes.
type loadRun struct {
	nodes    []*node
	reqs     []*request
	refs     map[string]string
	traced   bool
	start    time.Time
	deadline time.Time
	cc       connCounter
	clients  []*client
}

// nodeLoad is one node's share of the schedule.
type nodeLoad struct {
	submits []*request
	q       pollQueue
}

// run sends the schedule with nproc connections in total. Each node's
// submits go in due order through one connection, so the order in which
// a node's queue sees them is fixed by the seed; polls and result
// fetches use the node's other connections, or the same one when a node
// has only one.
func (lr *loadRun) run() {
	n := len(lr.nodes)
	loads := make([]*nodeLoad, n)
	for i := range loads {
		loads[i] = &nodeLoad{q: pollQueue{submitting: true, wake: make(chan struct{}, 1)}}
	}
	for _, r := range lr.reqs {
		nl := loads[r.arr.Node]
		nl.submits = append(nl.submits, r)
	}
	perNode := make([][]*client, n)
	for k, c := range lr.clients {
		perNode[k%n] = append(perNode[k%n], c)
	}
	lr.start = time.Now().Round(0) // wall clock, comparable with server timestamps
	for _, r := range lr.reqs {
		r.due = lr.start.Add(r.arr.At)
	}
	last := time.Duration(0)
	if len(lr.reqs) > 0 {
		last = lr.reqs[len(lr.reqs)-1].arr.At
	}
	lr.deadline = lr.start.Add(last + drainLimit)

	var wg sync.WaitGroup
	for i, cs := range perNode {
		nl := loads[i]
		if len(nl.submits) == 0 {
			nl.q.doneSubmitting()
		}
		for k, c := range cs {
			submit := k == 0
			poll := k > 0 || len(cs) == 1
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				lr.drive(c, nl, submit, poll)
			}(c)
		}
	}
	wg.Wait()
	for _, c := range lr.clients {
		c.close()
	}
	for _, r := range lr.reqs {
		if r.outcome == "" {
			r.outcome, r.detail = outcomeLost, "not terminal before the drain deadline"
		}
	}
}

// connect opens the generator's clients: conns in total, client k on
// node k mod len(nodes), so client i < len(nodes) is node i's submitter.
func (lr *loadRun) connect(conns int) error {
	if conns < len(lr.nodes) {
		return fmt.Errorf("need at least one connection per node (%d connections, %d nodes)", conns, len(lr.nodes))
	}
	for k := 0; k < conns; k++ {
		lr.clients = append(lr.clients, newClient(lr.nodes[k%len(lr.nodes)].url, &lr.cc))
	}
	return nil
}

// drive is one connection's event loop: due submits first, then due
// polls, otherwise sleep until the next of either.
func (lr *loadRun) drive(c *client, nl *nodeLoad, submit, poll bool) {
	i := 0
	if !submit {
		i = len(nl.submits)
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		now := time.Now()
		if now.After(lr.deadline) {
			return
		}
		if i < len(nl.submits) && !nl.submits[i].due.After(now) {
			lr.submit(c, nl, nl.submits[i])
			i++
			if i == len(nl.submits) {
				nl.q.doneSubmitting()
			}
			continue
		}
		var wake time.Time
		if poll {
			r, next, idle := nl.q.pop(now)
			if r != nil {
				lr.poll(c, nl, r)
				continue
			}
			if idle {
				return
			}
			wake = next
		} else if i == len(nl.submits) {
			return
		}
		if i < len(nl.submits) && (wake.IsZero() || nl.submits[i].due.Before(wake)) {
			wake = nl.submits[i].due
		}
		if wake.IsZero() || wake.After(lr.deadline) {
			wake = lr.deadline
		}
		timer.Reset(time.Until(wake))
		if poll {
			select {
			case <-timer.C:
			case <-nl.q.wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
		} else {
			<-timer.C
		}
	}
}

func (lr *loadRun) record(r *request, name string, start, end time.Time) {
	if lr.traced {
		r.rpcs = append(r.rpcs, rpcSpan{name, start, end})
	}
}

func (lr *loadRun) submit(c *client, nl *nodeLoad, r *request) {
	r.sent = time.Now()
	code, body, start, end, err := c.call("submit", http.MethodPost, "/jobs", r.body)
	lr.record(r, "http submit", start, end)
	switch {
	case err != nil:
		r.outcome, r.detail = outcomeFailed, err.Error()
		return
	case code == http.StatusTooManyRequests:
		r.outcome, r.detail = outcomeRefused, "429"
		return
	case code != http.StatusAccepted:
		r.outcome, r.detail = outcomeFailed, fmt.Sprintf("submit: HTTP %d: %s", code, body)
		return
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		r.outcome, r.detail = outcomeFailed, err.Error()
		return
	}
	r.jobID, r.key = st.ID, st.Key
	r.delay = firstPoll
	r.nextPoll = end.Add(r.delay)
	nl.q.push(r, true)
}

func (lr *loadRun) poll(c *client, nl *nodeLoad, r *request) {
	code, body, start, end, err := c.call("status", http.MethodGet, "/jobs/"+r.jobID, nil)
	lr.record(r, "http status", start, end)
	r.polls++
	var st serve.Status
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &st)
	} else if err == nil {
		err = fmt.Errorf("status: HTTP %d: %s", code, body)
	}
	if err != nil {
		r.outcome, r.detail = outcomeFailed, err.Error()
		nl.q.resolved()
		return
	}
	if !st.State.Terminal() {
		if r.delay *= 2; r.delay > maxPoll {
			r.delay = maxPoll
		}
		r.nextPoll = end.Add(r.delay)
		nl.q.push(r, false)
		return
	}
	r.observed = end
	lr.finish(c, r, st)
	nl.q.resolved()
}

// finish classifies a terminal request: fetches and checks the result
// of a done job, and reads the server's timestamps.
func (lr *loadRun) finish(c *client, r *request, st serve.Status) {
	if st.State != serve.Done {
		r.outcome, r.detail = outcomeFailed, fmt.Sprintf("job %s: %s %s", st.ID, st.State, st.Error)
		return
	}
	switch {
	case st.CacheHit:
		r.prov = "cache"
	case strings.HasPrefix(st.Source, "peer:"):
		r.prov = "peer"
	case st.Source == "computed":
		r.prov = "computed"
	case len(lr.nodes) > 1:
		// A cluster job that joined another job's in-flight store
		// computation reports no source of its own.
		r.prov = "shared"
	default:
		r.prov = "computed"
	}
	var err error
	if r.created, err = time.Parse(time.RFC3339Nano, st.Created); err == nil {
		if r.started, err = time.Parse(time.RFC3339Nano, st.Started); err == nil {
			r.finished, err = time.Parse(time.RFC3339Nano, st.Finished)
		}
	}
	if err != nil {
		r.outcome, r.detail = outcomeFailed, err.Error()
		return
	}
	code, body, start, end, err := c.call("result", http.MethodGet, "/jobs/"+r.jobID+"/result", nil)
	lr.record(r, "http result", start, end)
	if err != nil || code != http.StatusOK {
		r.outcome, r.detail = outcomeFailed, fmt.Sprintf("result: HTTP %d: %v", code, err)
		return
	}
	if want, got := lr.refs[r.key], sha256Hex(body); want != got {
		r.outcome, r.detail = outcomeMismatch, fmt.Sprintf("key %s: result sha256 %s, reference %q", r.key, got, want)
		return
	}
	if r.finished.Before(r.due) || r.finished.After(r.observed) {
		r.outcome, r.detail = outcomeBadTime, fmt.Sprintf("finished %v outside [due %v, observed %v]", r.finished, r.due, r.observed)
		return
	}
	r.outcome = outcomeDone
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// scrape reads a node's Prometheus counters and gauges.
func scrape(c *client) (map[string]float64, error) {
	code, body, _, _, err := c.call("metrics", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrapeCluster reads a node's GET /cluster counters.
func scrapeCluster(c *client) (cluster.Stats, error) {
	code, body, _, _, err := c.call("cluster", http.MethodGet, "/cluster", nil)
	if err != nil {
		return cluster.Stats{}, err
	}
	if code != http.StatusOK {
		return cluster.Stats{}, fmt.Errorf("cluster: HTTP %d", code)
	}
	var cs serve.ClusterStatus
	err = json.Unmarshal(body, &cs)
	return cs.Stats, err
}

// awaitJob polls a job until it is terminal and returns its result
// bytes; setup and reference runs use it outside the measured phase.
func awaitJob(c *client, id string) (serve.Status, []byte, error) {
	for delay := 200 * time.Microsecond; ; {
		code, body, _, _, err := c.call("status", http.MethodGet, "/jobs/"+id, nil)
		if err != nil {
			return serve.Status{}, nil, err
		}
		var st serve.Status
		if code != http.StatusOK {
			return st, nil, fmt.Errorf("status %s: HTTP %d", id, code)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return st, nil, err
		}
		if st.State.Terminal() {
			if st.State != serve.Done {
				return st, nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
			}
			code, data, _, _, err := c.call("result", http.MethodGet, "/jobs/"+id+"/result", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("result %s: HTTP %d", id, code)
			}
			return st, data, err
		}
		time.Sleep(delay)
		if delay < 20*time.Millisecond {
			delay *= 2
		}
	}
}

// submitAll runs the given specs through one daemon in batches that fit
// its queue, in index order, and returns each spec's store key and
// result bytes. One connection and the daemon's single worker keep the
// order in which results enter the store fixed.
func submitAll(c *client, specs []serve.Request, each func(i int, key string, result []byte) error) error {
	const batch = 32
	for lo := 0; lo < len(specs); lo += batch {
		hi := min(lo+batch, len(specs))
		ids := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			body, err := json.Marshal(specs[i])
			if err != nil {
				return err
			}
			code, resp, _, _, err := c.call("submit", http.MethodPost, "/jobs", body)
			if err != nil {
				return err
			}
			if code != http.StatusAccepted {
				return fmt.Errorf("submit spec %d: HTTP %d: %s", i, code, resp)
			}
			var st serve.Status
			if err := json.Unmarshal(resp, &st); err != nil {
				return err
			}
			ids = append(ids, st.ID)
		}
		for k, id := range ids {
			st, data, err := awaitJob(c, id)
			if err != nil {
				return err
			}
			if err := each(lo+k, st.Key, data); err != nil {
				return err
			}
		}
	}
	return nil
}
