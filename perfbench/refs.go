package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/version"
)

// refsJSON holds the reference hashes, keyed by model version: the
// SHA-256 of every quick-fidelity experiment table and of the served
// result of every spec in the two serve universes (keyed by the spec's
// store key, which already folds in the model version).
//
//go:embed refs.json
var refsJSON []byte

type modelRefs struct {
	Campaign map[string]string `json:"campaign"`
	Specs    map[string]string `json:"specs"`
}

func loadRefs() (modelRefs, error) {
	var all map[string]modelRefs
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		return modelRefs{}, fmt.Errorf("refs.json: %w", err)
	}
	refs, ok := all[version.Model]
	if !ok {
		return modelRefs{}, fmt.Errorf("refs.json has no reference hashes for model %s; record them with -write-refs", version.Model)
	}
	return refs, nil
}

// writeRefs records the current code's hashes for the current model
// version into path, keeping other models' entries. It is how the
// references are made when the model version changes; a benchmark run
// only reads them.
func writeRefs(path, dir string) error {
	all := map[string]modelRefs{}
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	refs := modelRefs{Campaign: map[string]string{}, Specs: map[string]string{}}
	opts := hirise.QuickExperimentOpts()
	opts.Workers = runtime.NumCPU()
	for _, id := range hirise.Experiments() {
		tab, err := hirise.RunExperiment(id, opts)
		if err != nil {
			return err
		}
		refs.Campaign[id] = sha256Hex([]byte(tab.String()))
	}

	nodes, err := startNodes(filepath.Join(dir, "refs"), 1)
	if err != nil {
		return err
	}
	c := newClient(nodes[0].url, &connCounter{})
	var specs []serve.Request
	for i := 0; i < hotSpecs; i++ {
		specs = append(specs, hotSpec(i))
	}
	for i := 0; i < clusterSpecs; i++ {
		specs = append(specs, clusterSpec(i))
	}
	err = submitAll(c, specs, func(i int, key string, data []byte) error {
		refs.Specs[key] = sha256Hex(data)
		return nil
	})
	c.close()
	if serr := stopNodes(nodes); err == nil {
		err = serr
	}
	os.RemoveAll(filepath.Join(dir, "refs"))
	if err != nil {
		return err
	}
	if len(refs.Specs) != len(specs) {
		return fmt.Errorf("%d specs gave only %d distinct store keys", len(specs), len(refs.Specs))
	}
	all[version.Model] = refs
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
