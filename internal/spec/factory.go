package spec

import (
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

var (
	schemes = map[string]topo.Scheme{"l2l": topo.L2LLRG, "lrg": topo.L2LLRG, "wlrg": topo.WLRG, "clrg": topo.CLRG}
	allocs  = map[string]topo.AllocPolicy{"input": topo.InputBinned, "output": topo.OutputBinned, "priority": topo.PriorityBased}
)

// Config assembles the Hi-Rise configuration the job describes. The
// scheme and allocation names are checked for every design, as the
// layer-aware traffic patterns read the configuration too.
func (j Job) Config() (topo.Config, error) {
	cfg := topo.Config{Radix: j.Radix, Layers: j.Layers, Channels: j.Channels, Classes: j.Classes}
	var ok bool
	if cfg.Scheme, ok = schemes[j.Scheme]; !ok {
		return cfg, fieldErr("scheme", "%q is unknown (want l2l, wlrg, or clrg)", j.Scheme)
	}
	if cfg.Alloc, ok = allocs[j.Alloc]; !ok {
		return cfg, fieldErr("alloc", "%q is unknown (want input, output, or priority)", j.Alloc)
	}
	return cfg, nil
}

// Factories returns pure switch and traffic factories for a checked
// load sweep, validating every enum along the way. The factories are
// safe to call from concurrent sweep points.
func (j Job) Factories() (func() sim.Switch, func() sim.Traffic, error) {
	cfg, err := j.Config()
	if err != nil {
		return nil, nil, err
	}
	mkTraffic, err := j.traffic(cfg)
	if err != nil {
		return nil, nil, err
	}
	switch j.Design {
	case "2d":
		return func() sim.Switch { return crossbar.New(j.Radix) }, mkTraffic, nil
	case "folded":
		if j.Layers < 1 || j.Radix%j.Layers != 0 {
			return nil, nil, fieldErr("layers", "%d cannot fold radix %d", j.Layers, j.Radix)
		}
		return func() sim.Switch { return crossbar.NewFolded(j.Radix, j.Layers) }, mkTraffic, nil
	case "hirise":
		// A channel needs a port on its layer to serve; the bound also
		// keeps the switch's arbitration state quadratic in the radix.
		if j.Channels > j.Radix/max(j.Layers, 1) {
			return nil, nil, fieldErr("channels", "%d exceeds the %d ports per layer", j.Channels, j.Radix/max(j.Layers, 1))
		}
		if _, err := core.New(cfg); err != nil {
			return nil, nil, err
		}
		return func() sim.Switch {
			sw, err := core.New(cfg)
			if err != nil {
				panic(err) // validated above
			}
			return sw
		}, mkTraffic, nil
	}
	return nil, nil, fieldErr("design", "%q is not a single-switch design (want 2d, folded, or hirise)", j.Design)
}

// TrafficFactory returns the traffic factory of a checked job whatever
// its design, for front ends that drive their own switch model.
func (j Job) TrafficFactory() (func() sim.Traffic, error) {
	cfg, err := j.Config()
	if err != nil {
		return nil, err
	}
	return j.traffic(cfg)
}

func (j Job) traffic(cfg topo.Config) (func() sim.Traffic, error) {
	n := j.Radix
	layered := j.Traffic == "interlayer" || j.Traffic == "layerlocal" || j.Traffic == "binadv"
	if layered && (cfg.Layers < 1 || n%cfg.Layers != 0) {
		return nil, fieldErr("layers", "%d does not split radix %d into equal layers", cfg.Layers, n)
	}
	switch j.Traffic {
	case "uniform":
		return func() sim.Traffic { return traffic.Uniform{Radix: n} }, nil
	case "hotspot":
		if j.Target < 0 || j.Target >= n {
			return nil, fieldErr("target", "%d is not an output of a radix-%d switch", j.Target, n)
		}
		return func() sim.Traffic { return traffic.Hotspot{Target: j.Target} }, nil
	case "adversarial":
		top := 0
		for in, out := range traffic.Adversarial().Flows {
			top = max(top, in, out)
		}
		if top >= n {
			return nil, fieldErr("radix", "%d is too small for the adversarial pattern, which drives port %d", n, top)
		}
		return func() sim.Traffic { return traffic.Adversarial() }, nil
	case "bursty":
		burst := j.Burst
		if burst == 0 {
			burst = 8
		}
		return func() sim.Traffic { return traffic.NewBursty(n, burst) }, nil
	case "permutation":
		return func() sim.Traffic { return traffic.NewRandomPermutation(n, j.Seed) }, nil
	case "bitrev":
		return func() sim.Traffic { return traffic.BitReverse{Radix: n} }, nil
	case "interlayer":
		return func() sim.Traffic { return traffic.InterLayerWorstCase{Cfg: cfg} }, nil
	case "layerlocal":
		return func() sim.Traffic { return traffic.LayerLocal{Cfg: cfg} }, nil
	case "binadv":
		if cfg.Channels < 1 {
			return nil, fieldErr("channels", "%d is not positive", cfg.Channels)
		}
		return func() sim.Traffic { return traffic.BinAdversarial{Cfg: cfg} }, nil
	}
	return nil, fieldErr("traffic", "%q is unknown", j.Traffic)
}
