package noc

import (
	"testing"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
)

// Port layout, link wiring and per-topology route order are
// internal/fabric's and tested there (TestRouteCandidatesOnShortestPaths,
// TestLinkDestMirror, TestRouteTablesMatchTopology). The tests here pin
// what noc adds on top: local delivery at the destination node, the
// core-to-router mapping, and network-level behaviour.

func withTopo(t fabric.Topology) Config {
	return Config{
		Topology:  t,
		NewSwitch: func() sim.Switch { return crossbar.New(t.Radix()) },
		Warmup:    2000, Measure: 8000, Seed: 1,
	}
}

func fbfly(w, h, conc, lanes int) Config {
	return withTopo(fabric.FlattenedButterfly{W: w, H: h, Conc: conc, Lanes: lanes})
}

// checkRoutesMakeProgress asserts, for every (node, destination core)
// pair and every lane the flow hash can pick, that pickRoute on an idle
// network returns exactly the local delivery port at the destination
// node, and elsewhere a link landing on a router strictly closer to it.
func checkRoutesMakeProgress(t *testing.T, topo fabric.Topology) {
	t.Helper()
	n, err := New(withTopo(topo))
	if err != nil {
		t.Fatal(err)
	}
	nodes, conc := topo.Nodes(), topo.Concentration()
	for node := 0; node < nodes; node++ {
		for destCore := 0; destCore < nodes*conc; destCore++ {
			dNode := destCore / conc
			for flow := 0; flow < topo.LaneCount(); flow++ {
				out := n.pickRoute(node, packet{destCore: destCore, flow: uint32(flow)})
				if node == dNode {
					if out != destCore%conc {
						t.Fatalf("%+v node %d -> local core %d: port %d, want %d", topo, node, destCore, out, destCore%conc)
					}
					continue
				}
				if out < conc || out >= topo.Radix() {
					t.Fatalf("%+v node %d -> core %d: port %d is not a link port", topo, node, destCore, out)
				}
				nb, _ := topo.LinkDest(node, out)
				if nb != dNode && topo.MinimalHops(nb, dNode) >= topo.MinimalHops(node, dNode) {
					t.Fatalf("%+v node %d -> core %d via port %d: hop to %d is not closer", topo, node, destCore, out, nb)
				}
			}
		}
	}
}

func TestMeshCandidatesMakeProgress(t *testing.T) {
	for _, m := range []fabric.Mesh{
		{W: 1, H: 1, Conc: 2, Lanes: 1},
		{W: 3, H: 3, Conc: 2, Lanes: 1},
		{W: 4, H: 2, Conc: 1, Lanes: 3},
		{W: 2, H: 5, Conc: 3, Lanes: 2},
	} {
		checkRoutesMakeProgress(t, m)
	}
}

func TestFBflyCandidatesMakeProgress(t *testing.T) {
	for _, f := range []fabric.FlattenedButterfly{
		{W: 2, H: 1, Conc: 1, Lanes: 1},
		{W: 3, H: 4, Conc: 2, Lanes: 2},
		{W: 4, H: 4, Conc: 1, Lanes: 3},
		{W: 5, H: 2, Conc: 3, Lanes: 1},
	} {
		checkRoutesMakeProgress(t, f)
	}
}

// TestFBflyRoutesRowFirst pins the hop order noc's deadlock freedom
// rests on: with no VCs, bounded buffers stay live only because every
// route is dimension ordered.
func TestFBflyRoutesRowFirst(t *testing.T) {
	n, err := New(fbfly(4, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 (0,0) -> core at node 15 (3,3): first hop must be the row
	// link toward column 3, then the column link to (3,3).
	pkt := packet{destCore: 15 * 2}
	for _, hop := range []struct{ from, to int }{{0, 3}, {3, 15}} {
		if nb, _ := n.topo.LinkDest(hop.from, n.pickRoute(hop.from, pkt)); nb != hop.to {
			t.Fatalf("hop from node %d goes to node %d, want %d (row first)", hop.from, nb, hop.to)
		}
	}
}

// TestFBflyDiameterTwo checks the defining property: every packet
// reaches its destination in at most 3 switch traversals (row hop,
// column hop, local delivery at the destination node).
func TestFBflyDiameterTwo(t *testing.T) {
	n, err := New(fbfly(4, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run(0.02)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.AvgHops > 3.0 {
		t.Errorf("avg hops %.2f exceeds the flattened butterfly bound", res.AvgHops)
	}
}

func TestFBflyFewerHopsThanMesh(t *testing.T) {
	mesh, err := New(smallMesh(4, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := New(fbfly(4, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rm, rf := mesh.Run(0.02), fb.Run(0.02)
	if rf.AvgHops >= rm.AvgHops {
		t.Errorf("flattened butterfly hops %.2f not below mesh %.2f", rf.AvgHops, rm.AvgHops)
	}
}

func TestFBflyBoundedBuffersLive(t *testing.T) {
	cfg := fbfly(4, 4, 3, 1)
	cfg.InputBufferPkts = 1
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := n.Run(1.0); res.Delivered == 0 {
		t.Fatal("flattened butterfly deadlocked with tight buffers")
	}
}

func TestExplicitMeshTopologyMatchesImplicit(t *testing.T) {
	imp, err := New(smallMesh(3, 3, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(withTopo(fabric.Mesh{W: 3, H: 3, Conc: 2, Lanes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ri, re := imp.Run(0.05), exp.Run(0.05)
	if ri != re {
		t.Errorf("implicit and explicit mesh configs diverge: %+v vs %+v", ri, re)
	}
}
