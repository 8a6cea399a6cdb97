package fabric

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/stats"
	"github.com/reprolab/hirise/internal/tele"
)

// Config parameterizes one fabric simulation. The per-router discipline
// matches internal/sim exactly — one arbitration cycle plus PacketFlits
// data cycles per traversal, round-robin VC selection, bounded source
// queues — so a 1-node fabric reproduces sim.Run byte for byte (pinned
// by TestOneNodeFabricMatchesSim).
type Config struct {
	// Topo wires the routers.
	Topo Topology
	// NewSwitch builds one router's switch; its radix must equal the
	// topology's. Nil selects a flat crossbar of the right radix.
	NewSwitch func() sim.Switch
	// Routing selects minimal or Valiant route computation.
	Routing Routing
	// Traffic produces the offered load over cores (destinations are
	// core indices). Implementations come from internal/traffic.
	Traffic sim.Traffic
	// Load is the offered load in packets per cycle per core.
	Load float64
	// PacketFlits is the packet length (default 4).
	PacketFlits int
	// VCs is the number of virtual channels per input port (default 4).
	// The VCs split into equal contiguous bands, one per deadlock class
	// (Topology.Classes); VCs must be >= the class count and at most
	// 64, because each input port tracks its VCs in one-word bitmasks.
	VCs int
	// VCBufPkts bounds each VC's input buffer in packets (default 1,
	// matching internal/sim's one-packet-per-VC discipline).
	VCBufPkts int
	// SourceQueueCap bounds per-core injection queues (default 64).
	SourceQueueCap int
	// Warmup and Measure are window lengths in cycles.
	Warmup, Measure int64
	// Seed drives injection, Valiant waypoint draws, and the
	// seed-derived lane tie-break.
	Seed uint64
	// Ctx, when non-nil, makes the run cancellable (polled every
	// ctxCheckInterval cycles, like internal/sim).
	Ctx context.Context
	// Obs attaches observability sinks: fabric.* counters, the latency
	// histogram, per-hop-count latency histograms, per-link busy-cycle
	// counters, and flit lifecycle trace events. Nil is free — no hook
	// allocates or branches beyond a nil check — and results are
	// byte-identical either way.
	Obs *obs.Observer
	// Faults, when non-nil, applies a static link/router fail-set from
	// cycle 0: failed lanes are never requested (surviving lanes of the
	// bundle reroute around the failure) and packets whose destination
	// router or every next-hop lane is failed are retired as dead
	// flows. Nil costs nothing.
	Faults *FaultSet
	// Check enables the invariant checker: credit conservation,
	// VC-class/band occupancy (the no-VC-cycle rule), VC mask
	// integrity, grant sanity, and end-of-run flit conservation
	// (injected == delivered + in-flight + dead). The deadlock watchdog
	// is always on regardless.
	Check bool
}

// Defaults fills unset fields with the paper's parameters (same
// convention as sim.Config: zero means unset, Seed 0 becomes 1).
func (c *Config) Defaults() {
	if c.PacketFlits == 0 {
		c.PacketFlits = 4
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.VCBufPkts == 0 {
		c.VCBufPkts = 1
	}
	if c.SourceQueueCap == 0 {
		c.SourceQueueCap = 64
	}
	if c.Warmup == 0 {
		c.Warmup = 10000
	}
	if c.Measure == 0 {
		c.Measure = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NewSwitch == nil && c.Topo != nil {
		radix := c.Topo.Radix()
		c.NewSwitch = func() sim.Switch { return crossbar.New(radix) }
	}
}

func (c *Config) validate() error {
	switch {
	case c.Topo == nil:
		return fmt.Errorf("fabric: no topology")
	case c.Traffic == nil:
		return fmt.Errorf("fabric: no traffic")
	case c.Load < 0:
		return fmt.Errorf("fabric: negative load %v", c.Load)
	case c.PacketFlits < 1 || c.VCs < 1 || c.VCBufPkts < 1 || c.SourceQueueCap < 1:
		return fmt.Errorf("fabric: non-positive structural parameter")
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("fabric: bad windows warmup=%d measure=%d", c.Warmup, c.Measure)
	case c.VCs > maxVCs:
		return fmt.Errorf("fabric: %d VCs exceed the limit of %d: each input port tracks its VCs in one-word (64-bit) masks",
			c.VCs, maxVCs)
	}
	if err := c.Topo.validate(); err != nil {
		return err
	}
	if c.Topo.Radix() > math.MaxInt16 {
		return fmt.Errorf("fabric: radix %d exceeds the route tables' %d-port limit", c.Topo.Radix(), math.MaxInt16)
	}
	if classes := c.Topo.Classes(c.Routing); c.VCs < classes {
		return fmt.Errorf("fabric: %d VCs cannot hold the %d deadlock classes %v routing needs",
			c.VCs, classes, c.Routing)
	}
	if got := c.NewSwitch().Radix(); got != c.Topo.Radix() {
		return fmt.Errorf("fabric: switch radix %d, topology needs %d", got, c.Topo.Radix())
	}
	if c.Faults != nil {
		if err := c.Faults.compatible(c.Topo); err != nil {
			return err
		}
	}
	return nil
}

// Result aggregates one fabric run's measurements. All rates are per
// cycle; all latencies are in cycles.
type Result struct {
	// OfferedLoad echoes the configured load.
	OfferedLoad float64
	// AcceptedFlits is the aggregate delivered flit rate (flits/cycle).
	AcceptedFlits float64
	// AcceptedPackets is the aggregate delivered packet rate.
	AcceptedPackets float64
	// AvgLatency is the mean packet latency, injection to last flit.
	AvgLatency float64
	// P50Latency and P99Latency are latency quantiles.
	P50Latency, P99Latency float64
	// AvgHops is the mean number of switch traversals per packet
	// (delivery included, so a 1-node fabric reports 1).
	AvgHops float64
	// Injected and Delivered count packets during measurement.
	Injected, Delivered int64
	// DroppedInjections counts packets discarded at full source queues
	// during measurement.
	DroppedInjections int64
	// DeadFlows counts packets retired over the whole run because the
	// fail-set severed every route to their destination; 0 without
	// faults, so fault-free results serialize exactly as before.
	DeadFlows int64 `json:",omitempty"`
}

// Saturated reports whether offered traffic exceeded acceptance.
func (r Result) Saturated() bool { return r.DroppedInjections > 0 }

// ctxCheckInterval matches internal/sim's cancellation cadence.
const ctxCheckInterval = 1024

// watchdogCycles is the forward-progress horizon of the always-on
// deadlock watchdog: a fabric holding buffered packets that forms no
// connection and delivers nothing for this many consecutive cycles is
// declared deadlocked. The longest legitimate fabric-wide quiet gap is
// one packet flight (PacketFlits+1 cycles, grant to delivery), so the
// horizon has two orders of magnitude of slack while still firing
// inside short test runs — a silent wedge must be an error, not a
// zero-throughput Result.
const watchdogCycles = 1024

// maxVCs is the per-port VC limit: the busy and free masks are one
// uint64 per input port.
const maxVCs = 64

// checkInterval is the cadence of the periodic structural invariant
// scans (credit conservation, band occupancy) under Config.Check.
const checkInterval = 1024

type packet struct {
	birth int64
	flow  uint32 // seed-derived flow hash; lane tie-break
	dest  int32  // destination core
	via   int32  // Valiant waypoint (router or group), -1 when minimal
	hops  uint16
	class uint8
	phase uint8 // 0 = toward the waypoint, 1 = toward the destination
}

// fifo is a fixed-capacity ring buffer of packets (same rationale as
// internal/sim: one allocation for the whole run).
type fifo struct {
	buf  []packet
	head int
	n    int
}

func (q *fifo) full() bool { return q.n == len(q.buf) }

func (q *fifo) push(p packet) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *fifo) peek() *packet { return &q.buf[q.head] }

func (q *fifo) pop() packet {
	p := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// router is one switch plus its connection state; its input buffers
// live in the network-wide vcq/resv slabs.
type router struct {
	sw  sim.Switch
	req []int // per input port: requested output this cycle
	rr  []int // per input port: round-robin VC pointer
	// Active connections, per input port.
	active    []bool
	connVC    []int
	connOut   []int
	downVC    []int
	downClass []uint8
	remaining []int
}

// source is one core's injection state.
type source struct {
	rng  prng.Source
	q    fifo
	next int64 // injection sequence, feeds the flow hash
}

// network is the run state; built fresh by Run.
//
// Input buffers are indexed by slot = router*radix+port and, per VC,
// qi = slot*vcs+vc. Per slot, bit v of busy is set when VC v holds a
// packet and bit v of free when it can take another (occupancy plus
// reservations below VCBufPkts); syncMask restores both bits wherever
// occupancy or reservations change, and the checker audits them.
type network struct {
	cfg   Config
	topo  Topology
	conc  int
	radix int
	vcs   int
	nodes []router
	src   []source
	vcq   []fifo  // input buffers, indexed qi
	resv  []uint8 // credits reserved by in-flight link transfers, indexed qi
	busy  []uint64
	free  []uint64
	// bandMask[c] has a bit set for each VC of class c's band.
	bandMask []uint64

	// Route tables (see tables.go).
	coreNode  []int32 // core -> router
	corePort  []int32 // core -> local port
	destTab   routeTable
	viaTab    routeTable
	links     []link   // indexed router*radix+port
	bundles   []bundle // same index, at each logical link's first lane
	liveLanes []lane
	wayOf     []int32 // router -> waypoint id it satisfies
	viaBump   uint8
	head      []headRoute // per input buffer, indexed qi

	rel []int // pending releases, encoded node*radix+port

	hist *stats.Histogram
	hops stats.Summary

	// Conservation and watchdog state.
	injTotal, delivTotal, deadTotal int64 // whole run, warmup included
	inNet                           int64 // packets buffered in VCs
	lastActivity                    int64

	// Observability handles (nil and free when cfg.Obs is nil).
	rec                                     *obs.Recorder
	mInjected, mDelivered, mDropped, mFlits *obs.Counter
	mWins, mLosses, mDead                   *obs.Counter
	mLatency                                *obs.Histogram
	hopHist                                 []*obs.Histogram
	linkBusy                                []*obs.Counter
	tInjected, tDelivered, tDropped, tFlits *tele.Counter
	tWins, tLosses, tDead                   *tele.Counter
}

// Run executes one fabric simulation and returns its measurements. It
// returns an error on configuration mistakes, context cancellation,
// invariant violations (Config.Check), and deadlock (always checked).
func Run(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := newNetwork(cfg)
	return n.run()
}

func newNetwork(cfg Config) *network {
	t := cfg.Topo
	nNodes, conc := t.Nodes(), t.Concentration()
	n := &network{
		cfg:   cfg,
		topo:  t,
		conc:  conc,
		radix: t.Radix(),
		vcs:   cfg.VCs,
		nodes: make([]router, nNodes),
		src:   make([]source, nNodes*conc),
		hist:  stats.NewHistogram(4, 4096),
	}
	classes := t.Classes(cfg.Routing)
	n.bandMask = make([]uint64, classes)
	for c := range n.bandMask {
		// Class c owns the contiguous VCs [c*VCs/classes, (c+1)*VCs/classes).
		n.bandMask[c] = vcMask((c+1)*cfg.VCs/classes) &^ vcMask(c*cfg.VCs/classes)
	}

	n.coreNode = make([]int32, len(n.src))
	n.corePort = make([]int32, len(n.src))
	for core := range n.src {
		n.coreNode[core], n.corePort[core] = int32(core/conc), int32(core%conc)
	}
	dest, via := t.routeKeys()
	n.destTab = newRouteTable(nNodes, dest, func(node int) int { return node }, t.RouteCandidates)
	n.viaTab = newRouteTable(nNodes, via, t.waypoint, t.ViaCandidates)
	n.links = newLinks(t)
	n.bundles, n.liveLanes = newBundles(t, n.links, cfg.Faults)
	n.wayOf = make([]int32, nNodes)
	for ni := range n.wayOf {
		n.wayOf[ni] = int32(t.waypoint(ni))
	}
	n.viaBump = uint8(t.ViaBump())

	// All router-local state comes from a handful of network-wide slabs:
	// a 72-router dragonfly otherwise pays thousands of small allocations
	// (one per VC buffer alone) before the first cycle runs.
	slots := nNodes * n.radix
	n.vcq = make([]fifo, slots*cfg.VCs)
	vcBufs := make([]packet, len(n.vcq)*cfg.VCBufPkts)
	for i := range n.vcq {
		n.vcq[i].buf = vcBufs[i*cfg.VCBufPkts : (i+1)*cfg.VCBufPkts : (i+1)*cfg.VCBufPkts]
	}
	n.resv = make([]uint8, len(n.vcq))
	n.head = make([]headRoute, len(n.vcq))
	n.busy = make([]uint64, slots)
	n.free = make([]uint64, slots)
	for i := range n.free {
		n.free[i] = vcMask(cfg.VCs) // every buffer empty and unreserved
	}
	ints := make([]int, nNodes*6*n.radix)
	bytes := make([]uint8, nNodes*n.radix)
	bools := make([]bool, nNodes*n.radix)
	carveInt := func() []int {
		s := ints[:n.radix:n.radix]
		ints = ints[n.radix:]
		return s
	}
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.sw = cfg.NewSwitch()
		nd.downClass = bytes[i*n.radix : (i+1)*n.radix : (i+1)*n.radix]
		nd.active = bools[i*n.radix : (i+1)*n.radix : (i+1)*n.radix]
		nd.req = carveInt()
		nd.rr = carveInt()
		nd.connVC = carveInt()
		nd.connOut = carveInt()
		nd.downVC = carveInt()
		nd.remaining = carveInt()
	}
	root := prng.New(cfg.Seed)
	srcBufs := make([]packet, len(n.src)*cfg.SourceQueueCap)
	for i := range n.src {
		root.SplitTo(&n.src[i].rng)
		n.src[i].q.buf = srcBufs[i*cfg.SourceQueueCap : (i+1)*cfg.SourceQueueCap : (i+1)*cfg.SourceQueueCap]
	}
	n.rel = make([]int, 0, slots)
	return n
}

// vcMask returns the mask of VCs [0, k).
func vcMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// syncMask recomputes VC v's busy and free bits at an input slot from
// its occupancy and reservations.
func (n *network) syncMask(slot, v int) {
	qi := slot*n.vcs + v
	bit := uint64(1) << uint(v)
	busy, free := n.busy[slot]&^bit, n.free[slot]&^bit
	if n.vcq[qi].n > 0 {
		busy |= bit
	}
	if n.vcq[qi].n+int(n.resv[qi]) < n.cfg.VCBufPkts {
		free |= bit
	}
	n.busy[slot], n.free[slot] = busy, free
}

// route computes the request for the head packet of input buffer qi
// at router ni: the output port and, for link hops, the downstream VC
// and post-hop class. ok is false when every candidate lane lacks
// credit this cycle (the packet holds); retire is true when the static
// fail-set severed every route (the packet can never be delivered).
// The head's route is resolved once and cached; a blocked head only
// repeats the credit check.
func (n *network) route(ni, qi int) (out, downVC int, downClass uint8, ok, retire bool) {
	h := &n.head[qi]
	if !h.ok {
		if !n.resolve(ni, n.vcq[qi].peek(), h) {
			return 0, 0, 0, false, true
		}
	}
	if h.lanes == 0 {
		return int(h.port), -1, h.ca, true, false
	}
	// Within a lane, the lowest free VC of the post-hop class band;
	// when the tie-break's lane lacks credit, the next live lane in
	// rotation, so backpressure on one lane spills to its siblings.
	if m := n.free[h.slot] & n.bandMask[h.ca]; m != 0 {
		return int(h.port), bits.TrailingZeros64(m), h.ca, true, false
	}
	if h.lanes == 1 {
		return 0, 0, 0, false, false
	}
	live := n.liveLanes[h.off : h.off+int32(h.lanes)]
	i := h.start
	for k := int16(1); k < h.lanes; k++ {
		if i++; i == h.lanes {
			i = 0
		}
		ln := &live[i]
		ca := h.class + ln.bump
		if m := n.free[ln.slot] & n.bandMask[ca]; m != 0 {
			return int(ln.port), bits.TrailingZeros64(m), ca, true, false
		}
	}
	return 0, 0, 0, false, false
}

// resolve fills h with pkt's route at router ni from the tables, or
// reports false when the fail-set leaves the packet no route.
func (n *network) resolve(ni int, pkt *packet, h *headRoute) bool {
	destNode := int(n.coreNode[pkt.dest])
	if ni == destNode {
		*h = headRoute{ok: true, ca: pkt.class, port: int16(n.corePort[pkt.dest])}
		return true
	}
	if fs := n.cfg.Faults; fs != nil && fs.RouterFailed(destNode) {
		return false
	}
	var first int
	if pkt.phase == 0 {
		first = n.viaTab.port(ni, int(pkt.via))
	} else {
		first = n.destTab.port(ni, destNode)
	}
	// Rerouting around failures drops the bundle's dead lanes. The
	// fail-set's per-bundle budget guarantees link faults alone never
	// empty a bundle; router faults can, and then the flow is dead.
	b := n.bundles[ni*n.radix+first]
	if b.n == 0 {
		return false
	}
	class := pkt.class
	if pkt.phase == 1 && pkt.via >= 0 && n.wayOf[ni] == pkt.via {
		// Dateline: the class bump happens on departure FROM the
		// waypoint, not on the hop into it, so each grid class band
		// carries one uninterrupted dimension-ordered route segment
		// (src->via in class 0, via->dst in class 1) and its channel
		// dependency graph stays acyclic. Bumping a hop early would
		// mix the tail of phase 0 into the class-1 band and admit
		// Y->X dependencies there — a real deadlock, caught by
		// TestSaturationTerminates when tried.
		class += n.viaBump
	}
	// Seed-derived lane tie-break: the flow hash is derived from the
	// run seed at injection.
	var start int32
	if b.n > 1 {
		start = int32((int(pkt.flow) + int(pkt.hops)) % int(b.n))
	}
	ln := n.liveLanes[b.off+start]
	*h = headRoute{
		slot: ln.slot, off: b.off, port: ln.port, lanes: int16(b.n), start: int16(start),
		ok: true, class: class, ca: class + ln.bump,
	}
	return true
}

func (n *network) run() (Result, error) {
	cfg := n.cfg
	obsOn := cfg.Obs != nil
	// Per-hop and per-link handles are looked up lazily and cached per
	// network. Without a registry there is nothing to cache: a shared
	// stand-in would be written by every concurrent sweep point.
	perHop := obsOn && cfg.Obs.Metrics != nil
	n.rec = cfg.Obs.Rec()
	n.mInjected = cfg.Obs.Counter("fabric.packets.injected")
	n.mDelivered = cfg.Obs.Counter("fabric.packets.delivered")
	n.mDropped = cfg.Obs.Counter("fabric.packets.dropped")
	n.mFlits = cfg.Obs.Counter("fabric.flits.delivered")
	n.mWins = cfg.Obs.Counter("fabric.arb.wins")
	n.mLosses = cfg.Obs.Counter("fabric.arb.losses")
	n.mDead = cfg.Obs.Counter("fabric.packets.dead")
	n.mLatency = cfg.Obs.Histogram("fabric.latency.cycles", 4, 4096)
	cfg.Obs.Gauge("fabric.offered.load").Set(cfg.Load)
	if perHop {
		n.linkBusy = make([]*obs.Counter, len(n.nodes)*n.radix)
	}

	samp := cfg.Obs.Sampler()
	n.tInjected = samp.Counter("fabric.packets.injected")
	n.tDelivered = samp.Counter("fabric.packets.delivered")
	n.tDropped = samp.Counter("fabric.packets.dropped")
	n.tFlits = samp.Counter("fabric.flits.delivered")
	n.tWins = samp.Counter("fabric.arb.wins")
	n.tLosses = samp.Counter("fabric.arb.losses")
	n.tDead = samp.Counter("fabric.packets.dead")
	if samp != nil {
		samp.GaugeFunc("fabric.queue.occupancy", func() float64 {
			var occ int64 = n.inNet
			for i := range n.src {
				occ += int64(n.src[i].q.n)
			}
			return float64(occ)
		})
		samp.GaugeFunc("fabric.flits.inflight", func() float64 {
			var fl int
			for i := range n.nodes {
				nd := &n.nodes[i]
				for p := range nd.active {
					if nd.active[p] {
						fl += nd.remaining[p]
					}
				}
			}
			return float64(fl)
		})
	}

	var chk *checker
	if cfg.Check {
		chk = newChecker(n)
	}

	var injected, delivered, dropped, flits int64
	total := cfg.Warmup + cfg.Measure
	for cycle := int64(0); cycle < total; cycle++ {
		if cfg.Ctx != nil && cycle%ctxCheckInterval == 0 && cfg.Ctx.Err() != nil {
			return Result{}, fmt.Errorf("fabric: run cancelled at cycle %d: %w", cycle, cfg.Ctx.Err())
		}
		measuring := cycle >= cfg.Warmup

		// 1. Advance active transmissions; completions deliver locally
		// or arrive on the linked neighbour input, consuming the credit
		// reserved at grant time. Resources release only after this
		// cycle's arbitration, matching the priority-bus reuse.
		n.rel = n.rel[:0]
		for ni := range n.nodes {
			nd := &n.nodes[ni]
			for in := range nd.active {
				if !nd.active[in] {
					continue
				}
				nd.remaining[in]--
				if nd.remaining[in] > 0 {
					continue
				}
				nd.active[in] = false
				slot := ni*n.radix + in
				n.rel = append(n.rel, slot)
				qi := slot*n.vcs + nd.connVC[in]
				pkt := n.vcq[qi].pop()
				n.head[qi].ok = false
				n.syncMask(slot, nd.connVC[in])
				n.inNet--
				pkt.hops++
				out := nd.connOut[in]
				if perHop && out >= n.conc {
					n.linkBusyCounter(ni, out).Add(int64(cfg.PacketFlits) + 1)
				}
				if out < n.conc {
					lat := cycle - pkt.birth
					if measuring {
						n.hist.Add(float64(lat))
						n.hops.Add(float64(pkt.hops))
						delivered++
						flits += int64(cfg.PacketFlits)
					}
					n.delivTotal++
					n.lastActivity = cycle
					n.mDelivered.Inc()
					n.mFlits.Add(int64(cfg.PacketFlits))
					n.tDelivered.Inc()
					n.tFlits.Add(int64(cfg.PacketFlits))
					n.mLatency.Observe(float64(lat))
					if perHop {
						n.hopHistFor(int(pkt.hops)).Observe(float64(lat))
					}
					n.rec.Record(cycle, obs.EvEject, int(pkt.dest), int(pkt.dest), int(lat))
					continue
				}
				l := &n.links[slot-in+out]
				pkt.class = nd.downClass[in]
				if pkt.phase == 0 && n.wayOf[l.node] == pkt.via {
					pkt.phase = 1
				}
				down, dvc := int(l.slot), nd.downVC[in]
				n.vcq[down*n.vcs+dvc].push(pkt)
				n.resv[down*n.vcs+dvc]--
				n.syncMask(down, dvc)
				n.inNet++
			}
		}

		// 2. Build requests from unconnected inputs with waiting
		// packets, walking the busy VCs round-robin from rr[in];
		// statically unroutable heads are retired as dead flows.
		for ni := range n.nodes {
			if cfg.Faults != nil && cfg.Faults.RouterFailed(ni) {
				continue // fail-stop: the router arbitrates nothing
			}
			nd := &n.nodes[ni]
			for in := range nd.req {
				nd.req[in] = -1
				if nd.active[in] {
					continue
				}
				slot := ni*n.radix + in
				if n.busy[slot] == 0 {
					continue
				}
				// Rotating right by rr puts VCs rr..vcs-1 at the bottom
				// and wraps 0..rr-1 above bit 63-rr, past every one of
				// them, so ascending bit order is round-robin order.
				r := nd.rr[in]
				for rot := bits.RotateLeft64(n.busy[slot], -r); rot != 0; rot &= rot - 1 {
					v := (bits.TrailingZeros64(rot) + r) & (maxVCs - 1)
					qi := slot*n.vcs + v
					out, dvc, dclass, ok, retire := n.route(ni, qi)
					if retire {
						dead := n.vcq[qi].pop()
						n.head[qi].ok = false
						n.syncMask(slot, v)
						n.inNet--
						n.deadTotal++
						n.lastActivity = cycle
						n.mDead.Inc()
						n.tDead.Inc()
						n.rec.Record(cycle, obs.EvDeadFlow, ni*n.radix+in, int(dead.dest), int(cycle-dead.birth))
						continue
					}
					if !ok {
						continue
					}
					if nd.rr[in] = v + 1; nd.rr[in] == n.vcs {
						nd.rr[in] = 0
					}
					nd.req[in] = out
					nd.connVC[in] = v
					nd.connOut[in] = out
					nd.downVC[in] = dvc
					nd.downClass[in] = dclass
					break
				}
			}

			// 3. Arbitrate and start new connections; link grants
			// reserve the downstream credit for the whole flight.
			for _, g := range nd.sw.Arbitrate(nd.req) {
				if chk != nil {
					if err := chk.checkGrant(cycle, ni, g.In, g.Out); err != nil {
						return Result{}, err
					}
				}
				nd.active[g.In] = true
				nd.remaining[g.In] = cfg.PacketFlits
				if g.Out >= n.conc {
					down, dvc := int(n.links[ni*n.radix+g.Out].slot), nd.downVC[g.In]
					n.resv[down*n.vcs+dvc]++
					n.syncMask(down, dvc)
				}
				n.lastActivity = cycle
				n.mWins.Inc()
				n.tWins.Inc()
				n.rec.Record(cycle, obs.EvArbWin, ni*n.radix+g.In, ni*n.radix+g.Out, cfg.PacketFlits)
			}
			if obsOn || samp != nil {
				for in := range nd.req {
					if nd.req[in] >= 0 && !nd.active[in] {
						n.mLosses.Inc()
						n.tLosses.Inc()
						n.rec.Record(cycle, obs.EvArbLose, ni*n.radix+in, ni*n.radix+nd.req[in], 0)
					}
				}
			}
		}

		// 4. Release the connections that finished this cycle.
		for _, id := range n.rel {
			n.nodes[id/n.radix].sw.Release(id % n.radix)
		}

		// 5. Inject new packets and refill the class-0 VC band from the
		// source queues.
		for core := range n.src {
			ni := int(n.coreNode[core])
			if cfg.Faults != nil && cfg.Faults.RouterFailed(ni) {
				continue // cores behind a failed router cannot inject
			}
			s := &n.src[core]
			if dest, okInj := cfg.Traffic.Next(core, cycle, cfg.Load, &s.rng); okInj {
				if s.q.full() {
					if measuring {
						dropped++
					}
					n.mDropped.Inc()
					n.tDropped.Inc()
					n.rec.Record(cycle, obs.EvDrop, core, dest, 0)
				} else {
					pkt := packet{
						birth: cycle,
						dest:  int32(dest),
						via:   -1,
						phase: 1,
						flow:  uint32(pool.SeedFor(cfg.Seed, uint64(core), uint64(s.next))),
					}
					if cfg.Routing == Valiant {
						if via := n.topo.ValiantVia(ni, int(n.coreNode[dest]), &s.rng); via >= 0 {
							pkt.via = int32(via)
							pkt.phase = 0
						}
					}
					s.q.push(pkt)
					s.next++
					n.injTotal++
					if measuring {
						injected++
					}
					n.mInjected.Inc()
					n.tInjected.Inc()
					n.rec.Record(cycle, obs.EvInject, core, dest, 0)
				}
			}
			if s.q.n > 0 {
				// Core ports take no link reservations, so a free VC
				// here is exactly a non-full one.
				slot := ni*n.radix + int(n.corePort[core])
				for m := n.free[slot] & n.bandMask[0]; m != 0 && s.q.n > 0; m &= m - 1 {
					v := bits.TrailingZeros64(m)
					p := s.q.pop()
					n.vcq[slot*n.vcs+v].push(p)
					n.syncMask(slot, v)
					n.inNet++
					n.rec.Record(cycle, obs.EvVCAlloc, core, int(p.dest), v)
				}
			}
		}

		// 6. Deadlock watchdog (always on) and periodic structural
		// invariants (Config.Check), then the telemetry window tick.
		if n.inNet > 0 && cycle-n.lastActivity > watchdogCycles {
			return Result{}, fmt.Errorf(
				"fabric: deadlock at cycle %d: %d packets buffered, no progress for %d cycles",
				cycle, n.inNet, watchdogCycles)
		}
		if chk != nil && cycle%checkInterval == checkInterval-1 {
			if err := chk.scan(cycle); err != nil {
				return Result{}, err
			}
		}
		samp.Tick(cycle + 1)
	}

	if chk != nil {
		if err := chk.conservation(); err != nil {
			return Result{}, err
		}
	}
	measured := float64(cfg.Measure)
	return Result{
		OfferedLoad:       cfg.Load,
		AcceptedFlits:     float64(flits) / measured,
		AcceptedPackets:   float64(delivered) / measured,
		AvgLatency:        n.hist.Mean(),
		P50Latency:        n.hist.Quantile(0.5),
		P99Latency:        n.hist.Quantile(0.99),
		AvgHops:           n.hops.Mean(),
		Injected:          injected,
		Delivered:         delivered,
		DroppedInjections: dropped,
		DeadFlows:         n.deadTotal,
	}, nil
}

// hopHistFor returns (creating lazily) the per-hop-count latency
// histogram. Only called when the observer has a metrics registry.
func (n *network) hopHistFor(hops int) *obs.Histogram {
	for hops >= len(n.hopHist) {
		n.hopHist = append(n.hopHist, nil)
	}
	if n.hopHist[hops] == nil {
		n.hopHist[hops] = n.cfg.Obs.Histogram(fmt.Sprintf("fabric.latency.hops=%02d", hops), 4, 4096)
	}
	return n.hopHist[hops]
}

// linkBusyCounter returns (creating lazily) the busy-cycle counter for
// output port out of router ni. Only called when the observer has a
// metrics registry; links that never carry traffic never appear.
func (n *network) linkBusyCounter(ni, out int) *obs.Counter {
	id := ni*n.radix + out
	if n.linkBusy[id] == nil {
		n.linkBusy[id] = n.cfg.Obs.Counter(fmt.Sprintf("fabric.link.busy[n%03d.p%02d]", ni, out))
	}
	return n.linkBusy[id]
}

// LoadSweep runs the configuration at each load on at most workers
// concurrent simulations and returns results in load order. Each point
// builds a fresh network and derives its seed from (base.Seed, index)
// via pool.SeedFor, so results are identical at every worker count.
// The first error by point index wins, mirroring serial execution.
func LoadSweep(base Config, loads []float64, workers int) ([]Result, error) {
	return LoadSweepObserved(base, loads, workers, nil)
}

// LoadSweepObserved is LoadSweep with per-point observability: obsFor,
// when non-nil, supplies each point its own Observer (points run
// concurrently and obs sinks are single-writer; base.Obs is ignored).
// Merging the per-point sinks in point order afterwards keeps the
// serialized output byte-identical at every worker count.
func LoadSweepObserved(base Config, loads []float64, workers int, obsFor func(i int) *obs.Observer) ([]Result, error) {
	out := make([]Result, len(loads))
	errs := make([]error, len(loads))
	pool.DoCtx(base.Ctx, len(loads), workers, func(i int) {
		cfg := base
		cfg.Load = loads[i]
		cfg.Seed = pool.SeedFor(base.Seed, uint64(i))
		cfg.Obs = nil
		if obsFor != nil {
			cfg.Obs = obsFor(i)
		}
		out[i], errs[i] = Run(cfg)
	})
	if base.Ctx != nil && base.Ctx.Err() != nil {
		return nil, base.Ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
