package spec

import (
	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/store"
)

// The store-key payloads of every result kind. A key is the hash of the
// canonical JSON of its kind and payload (store.KeyOf), so each type's
// field names, order and tags are frozen: changing one orphans every
// result cached under the old bytes (internal/spec/testdata/keys.json
// pins them). Worker counts are deliberately absent from all of them,
// since output is byte-identical at any parallelism.

// JobKey is the payload of the "experiment" and "loadsweep" kinds: the
// normalized job plus everything CacheKey folds in for experiments
// (publication-fidelity windows, the technology constants).
type JobKey struct {
	Request Job                  `json:"request"`
	Opts    experiments.CacheKey `json:"opts,omitempty"`
}

// Key derives the content address of a normalized job.
func (j Job) Key(st *store.Store) (store.Key, error) {
	p := JobKey{Request: j}
	if j.Kind == "experiment" {
		p.Opts = j.ExperimentOpts().CacheKey()
	}
	return st.KeyOf(j.Kind, p)
}

// SimKey is the payload of the "sim" kind: one hirise-sim run or sweep
// of a single hierarchical switch, keyed by its raw flag values.
type SimKey struct {
	Design, Scheme, Alloc, Traffic   string
	Radix, Layers, Channels, Classes int
	Target, VCs, Flits               int
	Burst, Load                      float64
	Loads                            []float64
	PerInput                         bool
	Warmup, Measure                  int64
	Seed                             uint64
	FaultSeed                        uint64
	FailChannels                     int
	FaultRate                        float64
	FaultRepair                      int64
	Check                            bool
	// omitempty keeps keys hashed before the flag existed valid for
	// full-length runs.
	ConvergeStop bool `json:"converge_stop,omitempty"`
}

// Key derives the content address of the run.
func (k SimKey) Key(st *store.Store) (store.Key, error) { return st.KeyOf("sim", k) }

// VOQKey is the payload of the "voq-sim" kind: a hirise-sim run of the
// flat VOQ crossbar, namespaced away from the hierarchical "sim" keys.
type VOQKey struct {
	Sched, Traffic                         string
	Radix, Iters, Speedup, VOQCap, OutQCap int
	Target                                 int
	Burst, Load                            float64
	Loads                                  []float64
	PerInput                               bool
	Warmup, Measure                        int64
	Seed                                   uint64
	// omitempty keeps keys hashed before the flag existed valid for
	// full-length runs.
	ConvergeStop bool `json:"converge_stop,omitempty"`
}

// Key derives the content address of the run.
func (k VOQKey) Key(st *store.Store) (store.Key, error) { return st.KeyOf("voq-sim", k) }

// FabricKey is the payload of the "fabric-sim" kind: a hirise-sim run of
// a multi-switch fabric.
type FabricKey struct {
	Topo, Routing, Traffic         string
	Nodes, MeshW, MeshH            int
	Conc, Lanes                    int
	Groups, GroupSize, GlobalPorts int
	VCs, Flits, Target             int
	Load                           float64
	Loads                          []float64
	Warmup, Measure                int64
	Seed, FaultSeed                uint64
	FailLinks, FailRouters         int
	Check                          bool
}

// Key derives the content address of the run.
func (k FabricKey) Key(st *store.Store) (store.Key, error) { return st.KeyOf("fabric-sim", k) }

// BenchKey is the payload of the "bench" kind: one hirise-bench
// experiment rendering.
type BenchKey struct {
	ID     string               `json:"id"`
	Opts   experiments.CacheKey `json:"opts"`
	Format string               `json:"format"`
	Plot   bool                 `json:"plot"`
}

// Key derives the content address of the rendering.
func (k BenchKey) Key(st *store.Store) (store.Key, error) { return st.KeyOf("bench", k) }
