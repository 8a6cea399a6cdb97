package fabric

// The run loop never calls the Topology: newNetwork memoizes its pure
// functions into the flat tables below, and TestRouteTablesMatchTopology
// and FuzzRouteTables hold every entry equal to the function it stands
// for.

// routeTable memoizes RouteCandidates (targets are routers) or
// ViaCandidates (targets are waypoints) as the first lane port of the
// hop; the candidates are that port and the LaneCount-1 after it.
type routeTable struct {
	hiN, loN     int
	hiKey, loKey []int32 // per target id
	// hi and lo hold, per router, the first lane port toward each hi
	// key and each lo key; -1 where the key is the router's own, which
	// sends a hi lookup on to lo.
	hi, lo []int16
}

// port returns the first lane port at router ni toward target, which
// must not be a target ni itself satisfies.
func (t *routeTable) port(ni, target int) int {
	if p := t.hi[ni*t.hiN+int(t.hiKey[target])]; p >= 0 {
		return int(p)
	}
	return int(t.lo[ni*t.loN+int(t.loKey[target])])
}

// newRouteTable tabulates cands (RouteCandidates or ViaCandidates) over
// the split's target space; own maps a router to the target it is.
func newRouteTable(nodes int, s keySplit, own func(node int) int, cands func(dst []int, node, target int) []int) routeTable {
	t := routeTable{
		hiN: s.hiN, loN: s.loN,
		hiKey: make([]int32, s.size()),
		loKey: make([]int32, s.size()),
		hi:    make([]int16, nodes*s.hiN),
		lo:    make([]int16, nodes*s.loN),
	}
	for id := range t.hiKey {
		t.hiKey[id] = int32(s.hi(id))
		t.loKey[id] = int32(s.lo(id))
	}
	var scratch []int
	first := func(ni, target int) int16 {
		scratch = cands(scratch[:0], ni, target)
		return int16(scratch[0])
	}
	for ni := 0; ni < nodes; ni++ {
		me := own(ni)
		a, b := s.hi(me), s.lo(me)
		for k := 0; k < s.hiN; k++ {
			p := int16(-1)
			if k != a {
				p = first(ni, s.id(k, b))
			}
			t.hi[ni*s.hiN+k] = p
		}
		for k := 0; k < s.loN; k++ {
			p := int16(-1)
			if k != b {
				p = first(ni, s.id(a, k))
			}
			t.lo[ni*s.loN+k] = p
		}
	}
	return t
}

// link memoizes LinkDest and ClassAfter for one (router, output port).
type link struct {
	slot int32 // downstream input slot nb*radix+inPort; -1 on core and dangling ports
	node int32 // downstream router nb
	bump uint8 // ClassAfter(class, router, port) - class
}

// bundle locates the live lanes of the logical link whose first lane
// is a given (router, port) in network.liveLanes: n of them from off,
// in lane order. The fail-set is static, so filtering it out once here
// is exact.
type bundle struct {
	off int32
	n   int32
}

// lane is one live lane of a bundle: its output port and the link
// table's slot and bump, copied so route reads one entry per lane.
type lane struct {
	slot int32
	port int16
	bump uint8
}

// newBundles tabulates the live lanes of every logical link: a lane is
// dead when it or the router it lands on is in the fail-set.
func newBundles(t Topology, links []link, fs *FaultSet) ([]bundle, []lane) {
	radix, conc, lanes := t.Radix(), t.Concentration(), t.LaneCount()
	bundles := make([]bundle, len(links))
	live := make([]lane, 0, len(links))
	if lanes == 0 {
		return bundles, live // the linkless single-switch mesh
	}
	for ni := 0; ni < t.Nodes(); ni++ {
		for first := conc; first+lanes <= radix; first += lanes {
			b := &bundles[ni*radix+first]
			b.off = int32(len(live))
			for out := first; out < first+lanes; out++ {
				l := links[ni*radix+out]
				if l.slot < 0 || fs != nil && (fs.LinkFailed(ni, out) || fs.RouterFailed(int(l.node))) {
					continue
				}
				live = append(live, lane{slot: l.slot, port: int16(out), bump: l.bump})
			}
			b.n = int32(len(live)) - b.off
		}
	}
	return bundles, live
}

// headRoute caches a head packet's resolved route at its router:
// everything route computes except the credit check, which changes
// every cycle. It is a pure function of the packet and the static
// tables, so it stays exact until the head leaves its buffer. The lane
// the tie-break tries first is held inline, so a head blocked on a
// single-lane link costs one cache read and one mask read per cycle.
type headRoute struct {
	slot  int32 // first lane's downstream slot
	off   int32 // live lanes' offset in network.liveLanes
	port  int16 // first lane's output port, or the local delivery port
	lanes int16 // live candidate lanes; 0 for local delivery
	start int16 // first lane's index among the live lanes
	ok    bool  // resolved; cleared whenever the buffer's head is popped
	class uint8 // class before the link's bump (dateline included)
	ca    uint8 // post-hop class on the first lane
}

// newLinks tabulates every wired link port of the topology.
func newLinks(t Topology) []link {
	nodes, radix, conc := t.Nodes(), t.Radix(), t.Concentration()
	links := make([]link, nodes*radix)
	for ni := 0; ni < nodes; ni++ {
		for out := 0; out < radix; out++ {
			l := &links[ni*radix+out]
			l.slot, l.node = -1, -1
			if out < conc || !t.wired(ni, out) {
				continue
			}
			nb, inPort := t.LinkDest(ni, out)
			l.slot, l.node = int32(nb*radix+inPort), int32(nb)
			l.bump = uint8(t.ClassAfter(0, ni, out))
		}
	}
	return links
}
