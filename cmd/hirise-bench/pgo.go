package main

import (
	"fmt"
	"os"
	"runtime/pprof"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
)

// runPGOProfile executes a representative slice of the simulator's hot
// paths under the CPU profiler and writes the pprof profile to path.
// Committing the output as cmd/hirise-bench/default.pgo lets `go build
// -pgo=auto` (the toolchain default) profile-guide every later build of
// this command; regenerate it with `hirise-bench -pgo-profile
// cmd/hirise-bench/default.pgo` after significant hot-loop changes.
//
// The workload mirrors where campaign wall-clock actually goes, so the
// compiler optimizes for the same mix CI and users run: the batched and
// sequential campaign arms on the stock LRG crossbar (the fused lean
// loop and sim.Run's phase loop), the Hi-Rise CLRG switch through the
// batch engine's generic backend (core.Arbitrate), and saturated
// dragonfly and 16x16 mesh fabric runs (route tables, VC-mask credits,
// and VC arbitration).
func runPGOProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pgo profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("pgo profile: %w", err)
	}
	workErr := pgoWorkload()
	pprof.StopCPUProfile()
	if cerr := f.Close(); cerr != nil && workErr == nil {
		workErr = cerr
	}
	if workErr != nil {
		return fmt.Errorf("pgo profile: %w", workErr)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func pgoWorkload() error {
	cfg := campaignCfg()

	// Batched campaign arm: the fused lean loop, arena recycled across
	// points.
	bt := sim.NewBatch(func() sim.Switch { return crossbar.New(64) }, nil)
	for round := 0; round < 3; round++ {
		for point := 0; point < campaignPoints; point++ {
			if _, err := bt.Run(cfg, campaignSeeds(point)); err != nil {
				return err
			}
		}
	}

	// Sequential campaign arm: sim.Run's phase loop with a fresh switch
	// per replicate.
	for point := 0; point < campaignPoints; point++ {
		for _, seed := range campaignSeeds(point) {
			c := cfg
			c.Switch = crossbar.New(64)
			c.Seed = seed
			if _, err := sim.Run(c); err != nil {
				return err
			}
		}
	}

	// Hi-Rise CLRG through the batch engine's generic backend.
	hb := sim.NewBatch(func() sim.Switch {
		sw, err := core.New(topo.Default64())
		if err != nil {
			panic(err)
		}
		return sw
	}, nil)
	for point := 0; point < campaignPoints; point++ {
		if _, err := hb.Run(cfg, campaignSeeds(point)); err != nil {
			return err
		}
	}

	// Saturated fabrics: the multi-switch hot loop, on the dragonfly
	// and on the fabric campaign's long-pole mesh.
	for _, t := range []fabric.Topology{perfDragonfly, perfMesh} {
		if _, err := fabric.Run(perfFabricConfig(t)); err != nil {
			return err
		}
	}
	return nil
}
