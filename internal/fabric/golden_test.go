package fabric

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/reprolab/hirise/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPath holds the corpus results recorded before the route tables
// and VC masks replaced per-cycle Topology dispatch; every later change
// to the run loop must reproduce them exactly.
var goldenPath = filepath.Join("testdata", "golden_results.json")

type goldenEntry struct {
	Name   string `json:"name"`
	Result Result `json:"result"`
}

// goldenCorpus enumerates the shapes the campaigns never reach: every
// topology at several lane counts, both routings, VC counts from the
// routing's class count up to 8 (so bands of one and of several VCs,
// even and uneven splits), multi-packet VC buffers, and a fail-set
// mixing link and router faults. The experiments only run VCs=4 with
// one-packet buffers, so a credit or band bug anywhere else would
// otherwise go unseen.
func goldenCorpus() []struct {
	name string
	cfg  Config
} {
	topos := []struct {
		name string
		topo Topology
	}{
		{"mesh4x3.l2", Mesh{W: 4, H: 3, Conc: 2, Lanes: 2}},
		{"fbfly3x3.l1", FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 1}},
		{"fbfly3x3.l3", FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 3}},
		{"dfly5x2x2.l1", Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 1}},
		{"dfly5x2x2.l2", Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 2}},
	}
	var out []struct {
		name string
		cfg  Config
	}
	for _, tp := range topos {
		for _, r := range []Routing{Minimal, Valiant} {
			for _, vcs := range []int{tp.topo.Classes(r), 3, 4, 8} {
				if vcs < tp.topo.Classes(r) {
					continue
				}
				for _, buf := range []int{1, 3} {
					for _, faulty := range []bool{false, true} {
						cfg := Config{
							Topo:      tp.topo,
							Routing:   r,
							Traffic:   traffic.Uniform{Radix: tp.topo.Nodes() * tp.topo.Concentration()},
							Load:      0.15,
							VCs:       vcs,
							VCBufPkts: buf,
							Warmup:    200,
							Measure:   1000,
							Seed:      11,
							Check:     true,
						}
						fault := "ok"
						if faulty {
							spec := FaultSpec{Seed: 5, FailRouters: 1}
							if tp.topo.LaneCount() > 1 {
								spec.FailLinks = 4
							}
							fs, err := spec.Build(tp.topo)
							if err != nil {
								panic(err)
							}
							cfg.Faults = fs
							fault = "faults"
						}
						out = append(out, struct {
							name string
							cfg  Config
						}{fmt.Sprintf("%s/%v/vcs=%d/buf=%d/%s", tp.name, r, vcs, buf, fault), cfg})
					}
				}
			}
		}
	}
	return out
}

// TestGoldenResults pins the fabric's simulated behaviour byte for byte
// across the corpus. Regenerate only for an intentional behaviour
// change: go test ./internal/fabric -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	var got []goldenEntry
	for _, c := range goldenCorpus() {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenEntry{c.name, res})
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
		t.Fatalf("missing golden file (run `go test ./internal/fabric -run TestGoldenResults -update`): %v", err)
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
