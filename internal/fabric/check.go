package fabric

import "fmt"

// checker is the fabric's self-checking invariant layer (Config.Check).
// It verifies online, at checkInterval cadence, that the credit
// bookkeeping and the VC-class discipline hold structurally, verifies
// every grant as it lands, and at end of run that every injected packet
// is accounted for. It observes the simulation without changing it; the
// campaigns and CLI keep it on for every shipped configuration.
//
// The checks, mapped to the deadlock argument in DESIGN.md §25:
//
//   - Grant sanity: a grant matches the request the fabric issued and
//     never lands on a failed lane or toward a failed router.
//   - Credit conservation: for every (input port, VC) the occupancy
//     plus outstanding reservations never exceeds the buffer bound, and
//     the reservation count equals exactly the in-flight transfers
//     targeting that slot.
//   - No VC-cycle occupancy: every buffered packet sits in a VC of the
//     band matching its class, and classes stay below the topology's
//     class count — so the class-banded channel order that makes the
//     wait-for graph acyclic is actually respected, never just assumed.
//   - VC mask integrity: every input port's busy and free masks agree
//     with its buffers and reservations, because the route and request
//     stages read only the masks and a drifted bit would misroute
//     without any other symptom.
//   - Flit conservation (end of run): injected == delivered + in-flight
//     (source queues + VC buffers) + dead.
type checker struct {
	n *network
	// expect is scratch for recomputing reservation counts, indexed
	// like network.resv.
	expect []uint8
}

func newChecker(n *network) *checker {
	return &checker{n: n, expect: make([]uint8, len(n.resv))}
}

// checkGrant validates one grant as the switch hands it out.
func (c *checker) checkGrant(cycle int64, ni, in, out int) error {
	n := c.n
	nd := &n.nodes[ni]
	if in < 0 || in >= n.radix || nd.req[in] != out {
		return fmt.Errorf("fabric: checker: cycle %d router %d: grant in=%d out=%d does not match request %d",
			cycle, ni, in, out, nd.req[in])
	}
	if fs := n.cfg.Faults; fs != nil && out >= n.conc {
		if fs.LinkFailed(ni, out) {
			return fmt.Errorf("fabric: checker: cycle %d router %d: grant on failed link port %d", cycle, ni, out)
		}
		if nb := int(n.links[ni*n.radix+out].node); fs.RouterFailed(nb) {
			return fmt.Errorf("fabric: checker: cycle %d router %d: grant toward failed router %d", cycle, ni, nb)
		}
	}
	return nil
}

// scan runs the periodic structural invariants over the whole fabric.
func (c *checker) scan(cycle int64) error {
	n := c.n
	classes := len(n.bandMask)
	for slot := range n.busy {
		ni, p := slot/n.radix, slot%n.radix
		if stray := (n.busy[slot] | n.free[slot]) &^ vcMask(n.vcs); stray != 0 {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d: VC masks set bits %#x beyond %d VCs",
				cycle, ni, p, stray, n.vcs)
		}
		for v := 0; v < n.vcs; v++ {
			qi := slot*n.vcs + v
			q := &n.vcq[qi]
			if q.n+int(n.resv[qi]) > n.cfg.VCBufPkts {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: occupancy %d + reserved %d exceeds buffer %d",
					cycle, ni, p, v, q.n, n.resv[qi], n.cfg.VCBufPkts)
			}
			busy, free := n.busy[slot]>>uint(v)&1 == 1, n.free[slot]>>uint(v)&1 == 1
			if busy != (q.n > 0) || free != (q.n+int(n.resv[qi]) < n.cfg.VCBufPkts) {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: mask busy=%v free=%v, but occupancy %d + reserved %d of buffer %d",
					cycle, ni, p, v, busy, free, q.n, n.resv[qi], n.cfg.VCBufPkts)
			}
			for i := 0; i < q.n; i++ {
				j := q.head + i
				if j >= len(q.buf) {
					j -= len(q.buf)
				}
				cl := int(q.buf[j].class)
				if cl >= classes {
					return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: packet class %d out of range (%d classes)",
						cycle, ni, p, v, cl, classes)
				}
				if n.bandMask[cl]>>uint(v)&1 == 0 {
					return fmt.Errorf("fabric: checker: cycle %d router %d port %d: class-%d packet occupies vc %d outside band %#x",
						cycle, ni, p, cl, v, n.bandMask[cl])
				}
			}
		}
	}
	// Credit conservation: recompute every reservation count from the
	// in-flight transfers, in one pass over them, and compare.
	clear(c.expect)
	for ui := range n.nodes {
		up := &n.nodes[ui]
		for in := range up.active {
			if up.active[in] && up.connOut[in] >= n.conc {
				down := int(n.links[ui*n.radix+up.connOut[in]].slot)
				c.expect[down*n.vcs+up.downVC[in]]++
			}
		}
	}
	for qi, want := range c.expect {
		if want != n.resv[qi] {
			slot := qi / n.vcs
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: reserved %d, in-flight transfers %d",
				cycle, slot/n.radix, slot%n.radix, qi%n.vcs, n.resv[qi], want)
		}
	}
	return nil
}

// conservation closes the books: every packet that entered a source
// queue over the whole run (warmup included) must be delivered, still
// buffered somewhere, or retired dead.
func (c *checker) conservation() error {
	n := c.n
	var inFlight int64
	for i := range n.src {
		inFlight += int64(n.src[i].q.n)
	}
	inFlight += n.inNet
	if n.injTotal != n.delivTotal+inFlight+n.deadTotal {
		return fmt.Errorf("fabric: checker: flit conservation violated: injected %d != delivered %d + in-flight %d + dead %d",
			n.injTotal, n.delivTotal, inFlight, n.deadTotal)
	}
	return nil
}
