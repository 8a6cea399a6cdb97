package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/traffic"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"github.com/reprolab/hirise/internal/fabric.(*network).route":     "fabric",
		"github.com/reprolab/hirise/internal/fabric.Run":                  "fabric",
		"github.com/reprolab/hirise/internal/experiments.TableIV.func1":   "experiments",
		"github.com/reprolab/hirise/internal/sched.(*Wavefront).Schedule": "sched",
		"github.com/reprolab/hirise/internal/store.(*Store).Get":          "store",
		"github.com/reprolab/hirise/internal/bitvec.Vec.Get":              "bitvec",
		"github.com/reprolab/hirise/perfbench.moduleOf":                   "bench",
		"main.(*client).loop":                         "bench",
		"runtime.mallocgc":                            "runtime",
		"runtime.asyncPreempt":                        "runtime",
		"runtime/internal/atomic.(*Uint32).Load":      "runtime",
		"internal/runtime/atomic.(*Uint32).Load":      "runtime",
		"net/http.(*conn).serve":                      "net_http",
		"net/http/internal.(*chunkedReader).Read":     "net_http",
		"encoding/json.(*encodeState).marshal":        "encoding_json",
		"syscall.Syscall6":                            "other",
		"sync.(*Mutex).Lock":                          "other",
		"github.com/reprolab/hirise.RunExperimentCtx": "other",
		"github.com/reprolab/hirise/internal/sim.(*Batch).runLean[go.shape.int]": "sim",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     100ms 25.00% 25.00%      400ms   100%  github.com/reprolab/hirise/internal/sim.Run
      80ms 20.00% 45.00%       80ms 20.00%  runtime.asyncPreempt
    1.50s 20.00% 45.00%       80ms 20.00%  github.com/reprolab/hirise/internal/fabric.(*network).route
      40ms 10.00% 55.00%       40ms 10.00%  github.com/reprolab/hirise/internal/topo.Config.LocalIndex (inline)
         0     0%   100%      120ms 30.00%  github.com/reprolab/hirise/internal/experiments.CornerCase.func1
`)
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.1, "runtime": 0.08, "fabric": 1.5, "topo": 0.04, "experiments": 0}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// TestCPUProfileMapsFabric profiles a real fabric simulation and checks
// that the profile's self time lands in the fabric module.
func TestCPUProfileMapsFabric(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	p, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	d := fabric.Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if _, err := hirise.SimulateFabric(fabric.Config{
			Topo: d, Routing: fabric.Minimal, Traffic: traffic.Uniform{Radix: d.Nodes() * d.Conc},
			Load: 1.0, Warmup: 100, Measure: 400,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	self, err := selfSeconds(path)
	if err != nil {
		t.Fatal(err)
	}
	if self["fabric"] <= 0 {
		t.Fatalf("no self time attributed to fabric: %v", self)
	}
	for _, idle := range []string{"serve", "store", "cluster"} {
		if self[idle] != 0 {
			t.Errorf("self time %v attributed to idle module %s", self[idle], idle)
		}
	}
}
