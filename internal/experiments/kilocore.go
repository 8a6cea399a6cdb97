package experiments

import (
	"fmt"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/noc"
	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
)

func init() { register("kilocore", Kilocore) }

// Kilocore explores the paper's §VI-E/Fig 13 composition: a 2D mesh of
// 3D Hi-Rise switches as the fabric for many-hundred-core systems,
// against a conventional mesh of low-radix 2D switches with the same
// core count. High-radix concentrated nodes cut the hop count enough to
// win on latency despite their slower clock, which is the argument for
// high-radix topologies the paper inherits from [4,5].
func Kilocore(o Opts) *Table {
	o = o.norm()

	type topology struct {
		name  string
		cfg   noc.Config
		ghz   float64
		radix int
	}

	hirise := topo.Config{Radix: 64, Layers: 4, Channels: 4,
		Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3}
	hirisePhys := phys.HiRise(hirise, o.Tech)
	lowRadix := 7 // 3 cores + 4 single link ports
	lowPhys := phys.Flat2D(lowRadix, o.Tech)

	// The flattened butterfly the paper compares against (§VI-E): same
	// 4x4 grid and concentration, but 2D Swizzle-Switch nodes with
	// direct row/column links (radix 48 + 6*2 = 60).
	fbTopo := fabric.FlattenedButterfly{W: 4, H: 4, Conc: 48, Lanes: 2}
	fbPhys := phys.Flat2D(fbTopo.Radix(), o.Tech)

	tops := []topology{
		{
			name: "4x4 mesh of Hi-Rise 64 (48 cores/node)",
			cfg: noc.Config{
				MeshW: 4, MeshH: 4, Concentration: 48, LinkPorts: 4,
				NewSwitch: func() sim.Switch {
					sw, err := core.New(hirise)
					if err != nil {
						panic(err)
					}
					return sw
				},
				Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
			},
			ghz:   hirisePhys.FreqGHz,
			radix: 64,
		},
		{
			name: "4x4 flattened butterfly of 2D radix-60",
			cfg: noc.Config{
				Topology:  fbTopo,
				NewSwitch: func() sim.Switch { return crossbar.New(fbTopo.Radix()) },
				Warmup:    o.Warmup, Measure: o.Measure, Seed: o.Seed,
			},
			ghz:   fbPhys.FreqGHz,
			radix: fbTopo.Radix(),
		},
		{
			name: "16x16 mesh of 2D radix-7 (3 cores/node)",
			cfg: noc.Config{
				MeshW: 16, MeshH: 16, Concentration: 3, LinkPorts: 1,
				NewSwitch: func() sim.Switch { return crossbar.New(lowRadix) },
				Warmup:    o.Warmup, Measure: o.Measure, Seed: o.Seed,
			},
			ghz:   lowPhys.FreqGHz,
			radix: lowRadix,
		},
	}

	type out struct {
		low noc.Result
		sat noc.Result
	}
	results := make([]out, len(tops))
	o.sweep(len(tops), func(i int) {
		cfg := tops[i].cfg
		cfg.Seed = o.seedFor("kilocore", i, 0)
		n, err := noc.New(cfg)
		if err != nil {
			panic(err)
		}
		// Cancellation aborts mid-run with a zero Result; the partial
		// table is discarded by the caller's post-run ctx check.
		low, _ := n.RunCtx(o.Ctx, 0.01)
		cfg.Seed = o.seedFor("kilocore", i, 1)
		n2, err := noc.New(cfg)
		if err != nil {
			panic(err)
		}
		sat, _ := n2.RunCtx(o.Ctx, 1.0)
		results[i] = out{low: low, sat: sat}
	})

	energies := []float64{hirisePhys.EnergyPJ, fbPhys.EnergyPJ, lowPhys.EnergyPJ}
	rows := make([][]string, len(tops))
	for i, tp := range tops {
		r := results[i]
		// Switch-traversal energy per 4-flit packet: each hop moves 4
		// 128-bit transactions through one switch. Inter-node link wires
		// are not modeled, which favours the low-radix mesh (it has ~3x
		// the hops, each crossing a die-scale link).
		pktEnergy := r.low.AvgHops * 4 * energies[i]
		rows[i] = []string{
			tp.name,
			fmt.Sprintf("%d", tp.cfg.Cores()),
			f(tp.ghz, 2),
			f(r.low.AvgHops, 2),
			f(r.low.AvgLatency/tp.ghz, 2),
			f(pktEnergy, 0),
			f(r.sat.AcceptedPackets*tp.ghz, 1),
		}
	}
	return &Table{
		ID:     "kilocore",
		Title:  "Mesh-of-Hi-Rise composition for 768 cores (paper §VI-E, Fig 13)",
		Header: []string{"Topology", "Cores", "Node GHz", "Avg hops", "Latency@1% (ns)", "E/pkt switch-only (pJ)", "Sat tput (pkt/ns)"},
		Rows:   rows,
		Notes: []string{
			"concentrated high-radix nodes cut hops and switch energy; the paper's §VI-E power comparison",
			"the flattened butterfly matches Hi-Rise's hop count but pays 2D-Swizzle energy and clock at radix 60 — the paper quotes ~58% power saving and ~13% system speedup for Hi-Rise over it",
			"the flat mesh's higher saturation reflects its 16x node count and the optimistic low-radix clock; link wire energy/latency is unmodeled and would penalize its ~3x hop count further",
			"uniform random traffic over all cores; store-and-forward per hop",
		},
	}
}
