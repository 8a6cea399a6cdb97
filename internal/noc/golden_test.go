package noc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPath holds the corpus results recorded before noc's private
// topology layer gave way to internal/fabric's; every later change to
// routing or the run loop must reproduce them exactly.
var goldenPath = filepath.Join("testdata", "golden.json")

type goldenEntry struct {
	Name   string `json:"name"`
	Result Result `json:"result"`
}

// goldenCorpus is the kilocore experiment's three networks (the 4x4
// mesh of Hi-Rise 64, the 4x4 flattened butterfly of radix-60
// crossbars, the 16x16 mesh of radix-7 crossbars) at short windows, at
// kilocore's two loads and two seeds each.
func goldenCorpus() []struct {
	name string
	cfg  Config
} {
	hirise := func() sim.Switch {
		sw, err := core.New(topo.Config{Radix: 64, Layers: 4, Channels: 4,
			Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3})
		if err != nil {
			panic(err)
		}
		return sw
	}
	fb := fabric.FlattenedButterfly{W: 4, H: 4, Conc: 48, Lanes: 2}
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"mesh4x4-hirise64", Config{MeshW: 4, MeshH: 4, Concentration: 48, LinkPorts: 4, NewSwitch: hirise}},
		{"fbfly4x4-xbar60", Config{Topology: fb, NewSwitch: func() sim.Switch { return crossbar.New(fb.Radix()) }}},
		{"mesh16x16-xbar7", Config{MeshW: 16, MeshH: 16, Concentration: 3, LinkPorts: 1,
			NewSwitch: func() sim.Switch { return crossbar.New(7) }}},
	}
	var out []struct {
		name string
		cfg  Config
	}
	for _, s := range shapes {
		for _, seed := range []uint64{1, 9} {
			cfg := s.cfg
			cfg.Warmup, cfg.Measure, cfg.Seed = 500, 1500, seed
			out = append(out, struct {
				name string
				cfg  Config
			}{fmt.Sprintf("%s/seed=%d", s.name, seed), cfg})
		}
	}
	return out
}

// TestGoldenResults pins noc's simulated behaviour byte for byte
// across the corpus. Regenerate only for an intentional behaviour
// change: go test ./internal/noc -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	var got []goldenEntry
	for _, c := range goldenCorpus() {
		for _, load := range []float64{0.01, 1.0} {
			n, err := New(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got = append(got, goldenEntry{fmt.Sprintf("%s/load=%g", c.name, load), n.Run(load)})
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/noc -run TestGoldenResults -update`): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d entries, golden file %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("drifted from golden:\n got %s\nwant %s", g, w)
		}
	}
}
