// Package topo defines the structural configuration of the switches under
// study: radix, layer count, layer-to-layer channel multiplicity, channel
// allocation policy, and the port/layer/channel index arithmetic shared by
// the switch models, the simulator, and the physical cost model.
//
// Conventions (matching the paper's Fig. 2/3): global input and output
// ports are numbered 0..Radix-1; layer l (0-based) owns ports
// [l*Radix/Layers, (l+1)*Radix/Layers). Layer-to-layer channels (L2LCs)
// are dedicated per ordered (source layer, destination layer) pair, with
// Channels of them per pair.
package topo

import "fmt"

// Grant records one connection formed by an arbitration cycle: global
// input In was granted global output Out. All switch models return Grants
// so the simulator can drive them interchangeably.
type Grant struct {
	In  int
	Out int
}

// AllocPolicy selects how a layer's inputs are assigned to the L2LCs
// toward a destination layer when Channels > 1 (paper §III-A).
type AllocPolicy int

const (
	// InputBinned gives each input a fixed, interleaved channel assignment.
	InputBinned AllocPolicy = iota
	// OutputBinned assigns the channel from the destination output index.
	OutputBinned
	// PriorityBased lets every input contend for every channel, with the
	// channels filled in priority order (higher delay in hardware).
	PriorityBased
)

// String returns the policy name used in reports.
func (p AllocPolicy) String() string {
	switch p {
	case InputBinned:
		return "input-binned"
	case OutputBinned:
		return "output-binned"
	case PriorityBased:
		return "priority"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Scheme selects the arbitration scheme of a switch (paper §III-B).
type Scheme int

const (
	// LRG is flat least-recently-granted arbitration; the only scheme for
	// the 2D and folded switches, where a single arbiter sees all inputs.
	LRG Scheme = iota
	// L2LLRG is the baseline hierarchical scheme: independent LRG at the
	// local switch and at the inter-layer sub-blocks.
	L2LLRG
	// WLRG freezes inter-layer LRG priorities in proportion to the number
	// of requestors behind each channel. Fair but hardware-infeasible.
	WLRG
	// CLRG is the paper's contribution: class counters per primary input
	// at the inter-layer sub-block, LRG tie-breaking within a class.
	CLRG
	// ISLIP1 is a single-iteration iSLIP *analog* for the related-work
	// comparison (paper §VII): round-robin pointers at both stages of the
	// Hi-Rise structure, with the first stage's pointer advancing only on
	// a final-stage grant. The paper observes it "is similar to the
	// baseline L-2-L LRG and does not solve the fairness issues". It is
	// NOT the true iSLIP algorithm — it runs on Hi-Rise's hierarchical
	// single-request-per-input view, not on virtual output queues; the
	// real accept-gated, multi-iteration iSLIP is the ISLIP scheme below.
	ISLIP1
	// ISLIP is canonical multi-iteration iSLIP (internal/sched) on the
	// flat VOQ crossbar mode (sim.RunVOQ). VOQ-only: it has no Hi-Rise
	// hierarchical implementation and core.New rejects it.
	ISLIP
	// Wavefront is the rotating-priority wavefront allocator on the VOQ
	// crossbar mode. VOQ-only.
	Wavefront
	// MWM is the exact maximum-weight-matching reference scheduler
	// (queue-length weights, O(n³) Hungarian) on the VOQ crossbar mode.
	// VOQ-only, and far too slow for hardware — it is the oracle and
	// upper bound of the sched-shootout campaign.
	MWM
)

// VOQ reports whether the scheme is an input-queued crossbar scheduler
// for the VOQ switch mode (sim.RunVOQ + internal/sched) rather than a
// Hi-Rise/Swizzle-Switch arbitration scheme. VOQ schemes are rejected
// by Validate, and thus by core.New.
func (s Scheme) VOQ() bool {
	switch s {
	case ISLIP, Wavefront, MWM:
		return true
	}
	return false
}

// String returns the scheme name used in reports.
func (s Scheme) String() string {
	switch s {
	case LRG:
		return "LRG"
	case L2LLRG:
		return "L-2-L LRG"
	case WLRG:
		return "WLRG"
	case CLRG:
		return "CLRG"
	case ISLIP1:
		return "iSLIP-1"
	case ISLIP:
		return "iSLIP"
	case Wavefront:
		return "wavefront"
	case MWM:
		return "MWM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config describes a Hi-Rise switch instance. The 2D and folded baselines
// use only Radix (and, for folded, Layers).
type Config struct {
	Radix    int         // total inputs = total outputs (N)
	Layers   int         // stacked silicon layers (L); 1 means flat 2D
	Channels int         // L2LC multiplicity between each layer pair (c)
	Alloc    AllocPolicy // channel allocation policy
	Scheme   Scheme      // arbitration scheme
	Classes  int         // CLRG class count (paper uses 3)
}

// Default64 returns the paper's headline configuration: 64-radix, 4-layer,
// 4-channel, input-binned, CLRG with 3 classes.
func Default64() Config {
	return Config{Radix: 64, Layers: 4, Channels: 4, Alloc: InputBinned, Scheme: CLRG, Classes: 3}
}

// Validate reports whether the configuration is structurally sound for
// cycle-accurate simulation (the physical model tolerates more).
func (c Config) Validate() error {
	switch {
	case c.Radix <= 0:
		return fmt.Errorf("topo: radix %d must be positive", c.Radix)
	case c.Layers <= 0:
		return fmt.Errorf("topo: layers %d must be positive", c.Layers)
	case c.Radix%c.Layers != 0:
		return fmt.Errorf("topo: radix %d not divisible by layers %d", c.Radix, c.Layers)
	case c.Layers > 1 && c.Channels <= 0:
		return fmt.Errorf("topo: channels %d must be positive", c.Channels)
	case c.Scheme.VOQ():
		return fmt.Errorf("topo: scheme %v is a VOQ crossbar scheduler (sim.RunVOQ), not a hierarchical switch scheme", c.Scheme)
	case c.Scheme == CLRG && c.Classes < 2:
		return fmt.Errorf("topo: CLRG needs at least 2 classes, have %d", c.Classes)
	case c.Scheme == CLRG && c.Classes > 256:
		return fmt.Errorf("topo: CLRG class count %d exceeds the 8-bit class counters", c.Classes)
	case c.Alloc == InputBinned && c.Layers > 1 && c.PortsPerLayer()%c.Channels != 0:
		return fmt.Errorf("topo: ports per layer %d not divisible by channels %d for input binning",
			c.PortsPerLayer(), c.Channels)
	}
	return nil
}

// PortsPerLayer returns N/L.
func (c Config) PortsPerLayer() int { return c.Radix / c.Layers }

// LayerOf returns the layer owning global port p (inputs and outputs use
// the same partitioning).
func (c Config) LayerOf(p int) int { return p / c.PortsPerLayer() }

// LocalIndex returns port p's index within its layer.
func (c Config) LocalIndex(p int) int { return p % c.PortsPerLayer() }

// Port returns the global port for (layer, localIndex).
func (c Config) Port(layer, local int) int { return layer*c.PortsPerLayer() + local }

// NumL2LC returns the total number of layer-to-layer channels in the
// switch: one group of Channels per ordered layer pair.
func (c Config) NumL2LC() int { return c.Layers * (c.Layers - 1) * c.Channels }

// L2LCID identifies one channel from layer src to layer dst. Channels are
// numbered densely: for each source layer, the L-1 destinations in
// ascending layer order (skipping src), Channels each.
func (c Config) L2LCID(src, dst, ch int) int {
	if src == dst {
		panic("topo: no L2LC within a layer")
	}
	d := dst
	if dst > src {
		d--
	}
	return (src*(c.Layers-1)+d)*c.Channels + ch
}

// L2LCSrcDst inverts L2LCID, returning source layer, destination layer,
// and channel index within the pair.
func (c Config) L2LCSrcDst(id int) (src, dst, ch int) {
	ch = id % c.Channels
	pair := id / c.Channels
	src = pair / (c.Layers - 1)
	d := pair % (c.Layers - 1)
	dst = d
	if dst >= src {
		dst++
	}
	return
}

// ChannelFor returns the channel index (0..Channels-1) that the given
// global input uses to reach the given global output's layer, under the
// configured allocation policy. For PriorityBased the caller arbitrates
// across all channels, so ChannelFor returns -1.
func (c Config) ChannelFor(input, output int) int {
	switch c.Alloc {
	case InputBinned:
		return c.LocalIndex(input) % c.Channels
	case OutputBinned:
		return c.LocalIndex(output) % c.Channels
	default:
		return -1
	}
}

// InputsPerChannel returns how many of a layer's inputs share one L2LC
// under input binning: N/(L*c) (paper §III-A).
func (c Config) InputsPerChannel() int { return c.PortsPerLayer() / c.Channels }

// LocalSwitchShape returns the (inputs, outputs) dimensions of the local
// switch on one layer: N/L inputs; N/L intermediate outputs plus
// c*(L-1) L2LC outputs (paper Fig. 3).
func (c Config) LocalSwitchShape() (in, out int) {
	return c.PortsPerLayer(), c.PortsPerLayer() + c.Channels*(c.Layers-1)
}

// SubBlockInputs returns the number of contenders at one inter-layer
// sub-block: c*(L-1) incoming L2LCs plus the local intermediate output.
func (c Config) SubBlockInputs() int { return c.Channels*(c.Layers-1) + 1 }

// String renders the configuration in the paper's style, e.g.
// "[(16x28), 16.(13x1)]x4".
func (c Config) String() string {
	if c.Layers <= 1 {
		return fmt.Sprintf("%dx%d", c.Radix, c.Radix)
	}
	in, out := c.LocalSwitchShape()
	return fmt.Sprintf("[(%dx%d), %d.(%dx1)]x%d %s/%s",
		in, out, c.PortsPerLayer(), c.SubBlockInputs(), c.Layers, c.Scheme, c.Alloc)
}
