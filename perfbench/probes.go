package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/cache"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/manycore"
	"github.com/reprolab/hirise/internal/noc"
	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/store"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/trace"
	"github.com/reprolab/hirise/internal/traffic"
)

// probeReps is how many times each probe repeats its fixed work; the
// reported rate is the median repetition.
const probeReps = 3

// probe times fn, which does a fixed amount of work, probeReps times
// inside spans and returns the median duration.
func probe(tr *tracer, name string, fn func() error) (time.Duration, error) {
	var times samples
	for i := 0; i < probeReps; i++ {
		var err error
		t0 := time.Now()
		tr.timed("probe "+name, func() { err = fn() })
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		times = append(times, float64(d))
	}
	return time.Duration(times.median()), nil
}

func nsPer(d time.Duration, work int64) float64 { return float64(d.Nanoseconds()) / float64(work) }

func hiriseSwitch() sim.Switch {
	sw, err := core.New(topo.Default64())
	if err != nil {
		panic(err) // topo.Default64 is a valid configuration
	}
	return sw
}

// layerProbes are the direct probes of each workload's traced run, one
// set per workload so that a layer the workload never calls reads 0:
// the simulation layers with the campaign, one cluster-spec sweep with
// serve-cluster, and the store reads with serve-hot. dir holds any
// files a probe writes.
var layerProbes = map[string]func(tr *tracer, dir string, r *result) error{
	"campaign":      simProbes,
	"serve-hot":     probeStore,
	"serve-cluster": probeSweep,
}

// simProbes times each simulation layer's entry point on one
// representative configuration taken from the experiment it stands for,
// and records the exact work each probe did in its metric's count.
func simProbes(tr *tracer, _ string, r *result) error {
	// fabric: the 72-router dragonfly that hirise-bench -perf times.
	d := fabric.Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1}
	fcfg := fabric.Config{
		Topo: d, Routing: fabric.Minimal, Traffic: traffic.Uniform{Radix: d.Nodes() * d.Conc},
		Load: 1.0, Warmup: 200, Measure: 800,
	}
	var fres fabric.Result
	t, err := probe(tr, "fabric", func() (err error) { fres, err = fabric.Run(fcfg); return })
	if err != nil {
		return err
	}
	r.set("fabric.ns_per_cycle", nsPer(t, fcfg.Warmup+fcfg.Measure), int(fcfg.Warmup+fcfg.Measure))
	r.set("fabric.flits", float64(int64(fres.AcceptedFlits*float64(fcfg.Measure)+0.5)), 0)

	// noc: kilocore's 4x4 mesh of Hi-Rise 64 switches at saturation.
	ncfg := noc.Config{
		MeshW: 4, MeshH: 4, Concentration: 48, LinkPorts: 4,
		NewSwitch: hiriseSwitch, Warmup: 200, Measure: 800, Seed: 1,
	}
	if t, err = probe(tr, "noc", func() error {
		n, err := noc.New(ncfg)
		if err != nil {
			return err
		}
		n.Run(1.0)
		return nil
	}); err != nil {
		return err
	}
	r.set("noc.ns_per_cycle", nsPer(t, ncfg.Warmup+ncfg.Measure), int(ncfg.Warmup+ncfg.Measure))

	// sched: sched-shootout's radix-64 VOQ switch at 90% uniform load,
	// and the bare Schedule call on a 25%-dense request matrix.
	const voqCycles = 500 + 2000
	for _, s := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"islip", func() sched.Scheduler { return sched.NewISLIP(64, 2) }},
		{"wavefront", func() sched.Scheduler { return sched.NewWavefront(64) }},
	} {
		if t, err = probe(tr, "voq "+s.name, func() error {
			_, err := sim.RunVOQ(sim.VOQConfig{
				Radix: 64, Sched: s.mk(), Traffic: traffic.Uniform{Radix: 64},
				Load: 0.9, Warmup: 500, Measure: 2000, Seed: 1,
			})
			return err
		}); err != nil {
			return err
		}
		r.set("voq.ns_per_cycle."+s.name, nsPer(t, voqCycles), voqCycles)

		const calls = 20000
		sc, req, qlen, match := s.mk(), schedRequests(64), make([]int32, 64*64), make([]int, 64)
		for i := range qlen {
			qlen[i] = int32(1 + i%8)
		}
		if t, err = probe(tr, "sched "+s.name, func() error {
			for i := 0; i < calls; i++ {
				sc.Schedule(req, qlen, match)
			}
			return nil
		}); err != nil {
			return err
		}
		r.set("sched.ns_per_call."+s.name, nsPer(t, calls), calls)
	}

	// sim: one Hi-Rise CLRG radix-64 run.
	scfg := sim.Config{Traffic: traffic.Uniform{Radix: 64}, Load: 0.5, Warmup: 500, Measure: 2000, Seed: 1}
	if t, err = probe(tr, "sim", func() error {
		c := scfg
		c.Switch = hiriseSwitch()
		_, err := sim.Run(c)
		return err
	}); err != nil {
		return err
	}
	r.set("sim.ns_per_cycle", nsPer(t, scfg.Warmup+scfg.Measure), int(scfg.Warmup+scfg.Measure))

	// manycore and cache: table6's first mix on the Hi-Rise switch, and
	// the L1D cache under a uniform address stream four times its size.
	mix := trace.TableVIMixes()[0]
	benches, err := mix.Assign(64, 1)
	if err != nil {
		return err
	}
	const mcWarmup, mcMeasure = 1000, 4000
	if t, err = probe(tr, "manycore", func() error {
		sys, err := manycore.New(manycore.Config{
			SwitchGHz: phys.HiRise(topo.Default64(), phys.Default32nm()).FreqGHz,
			Warmup:    mcWarmup, Measure: mcMeasure, Seed: 1,
		}, hiriseSwitch(), benches)
		if err != nil {
			return err
		}
		sys.Run()
		return nil
	}); err != nil {
		return err
	}
	r.set("manycore.ns_per_cycle", nsPer(t, mcWarmup+mcMeasure), mcWarmup+mcMeasure)

	const accesses = 1 << 20
	if t, err = probe(tr, "cache", func() error {
		c, err := cache.New(cache.L1D())
		if err != nil {
			return err
		}
		src := prng.New(1)
		for i := 0; i < accesses; i++ {
			c.Access(src.Uint64()&(128<<10-1), i%4 == 0)
		}
		return nil
	}); err != nil {
		return err
	}
	r.set("cache.ns_per_access", nsPer(t, accesses), accesses)
	return nil
}

// probeSweep times one load sweep shaped like a serve-cluster spec,
// outside the daemons.
func probeSweep(tr *tracer, _ string, r *result) error {
	spec := clusterSpec(0)
	t, err := probe(tr, "sim sweep", func() error {
		_, err := sim.LoadSweep(sim.Config{Warmup: spec.Warmup, Measure: spec.Measure, Seed: 1},
			hiriseSwitch, func() sim.Traffic { return traffic.Uniform{Radix: 64} }, spec.Loads, runtime.NumCPU())
		return err
	})
	if err != nil {
		return err
	}
	r.set("sim.sweep_s", t.Seconds(), len(spec.Loads))
	return nil
}

// schedRequests is a fixed request matrix with about a quarter of the
// (input, output) pairs set, as in hirise-bench -perf.
func schedRequests(n int) []bitvec.Vec {
	src := prng.New(7)
	req := make([]bitvec.Vec, n)
	for i := range req {
		req[i] = bitvec.New(n)
		for o := 0; o < n; o++ {
			if src.Bernoulli(0.25) {
				req[i].Set(o)
			}
		}
	}
	return req
}

// probeStore times store.Get on a memory-front hit and on a disk read
// (a second store on the same directory with the memory front off),
// over 16 results the size of a serve-hot result.
func probeStore(tr *tracer, dir string, r *result) error {
	dir = filepath.Join(dir, "probe-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, 2048)
	var keys []store.Key
	for i := 0; i < 16; i++ {
		k, err := st.KeyOf("probe", i)
		if err != nil {
			return err
		}
		p := append([]byte(nil), payload...)
		p[0] = byte(i)
		if _, _, err := st.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return p, nil }); err != nil {
			return err
		}
		keys = append(keys, k)
	}
	disk, err := store.Open(dir, store.Options{MemEntries: -1})
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		st   *store.Store
		gets int
	}{{"memory", st, 1 << 16}, {"disk", disk, 1 << 10}} {
		t, err := probe(tr, "store get "+s.name, func() error {
			for i := 0; i < s.gets; i++ {
				if _, ok := s.st.Get(keys[i%len(keys)]); !ok {
					return fmt.Errorf("store lost key %d", i%len(keys))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.set("store_us.get."+s.name, nsPer(t, int64(s.gets))/1e3, s.gets)
	}
	return nil
}
