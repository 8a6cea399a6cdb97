package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestResolveIDs(t *testing.T) {
	valid := []string{"table1", "table4", "fig10"}
	cases := []struct {
		spec string
		want []string
		ok   bool
	}{
		{"all", valid, true},
		{" all ", valid, true},
		{"table4", []string{"table4"}, true},
		{"fig10,table1", []string{"fig10", "table1"}, true},
		{"table4,table4,table4", []string{"table4"}, true},
		{" table4 , ,fig10,", []string{"table4", "fig10"}, true},
		{"nope", nil, false},
		{"table4,nope", nil, false},
		{"", nil, false},
		{",,", nil, false},
	}
	for _, c := range cases {
		got, err := resolveIDs(c.spec, valid)
		if c.ok != (err == nil) {
			t.Errorf("resolveIDs(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("resolveIDs(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestResolveIDsValidatesBeforeRunning(t *testing.T) {
	// The whole point of up-front validation: a spec mixing good and bad
	// ids must fail as a unit, not start the good ones.
	if _, err := resolveIDs("table4,bogus", []string{"table4"}); err == nil {
		t.Fatal("want error for spec with one unknown id")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the unknown id", err)
	}
}

func fastOpts(workers int) hirise.ExperimentOpts {
	o := hirise.QuickExperimentOpts()
	o.Warmup, o.Measure = 500, 2000
	o.Workers = workers
	return o
}

// TestJSONGoldenFile pins the -json side output's exact bytes for the
// purely analytic experiments (no simulation, no randomness), so the
// machine-readable schema can't drift silently under consumers. Update
// with `go test ./cmd/hirise-bench -run JSONGolden -update`.
func TestJSONGoldenFile(t *testing.T) {
	ids := []string{"fig9a", "fig12"}
	var out, timings, js bytes.Buffer
	if err := runExperiments(context.Background(), nil, &out, &timings, &js, ids, fastOpts(2), "text", false, 0); err != nil {
		t.Fatal(err)
	}
	got := js.Bytes()
	path := filepath.Join("testdata", "json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/hirise-bench -run JSONGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json output drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestStoreReplayIsByteIdentical checks the -store contract: a second
// identical run replays from the cache, and both stdout and the -json
// side output are byte-identical to an uncached run.
func TestStoreReplayIsByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig9a", "fig12"}
	render := func(s *store.Store) (stdout, js []byte, timings string) {
		t.Helper()
		var out, tl, j bytes.Buffer
		if err := runExperiments(context.Background(), s, &out, &tl, &j, ids, fastOpts(2), "text", false, 0); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), j.Bytes(), tl.String()
	}
	uncachedOut, uncachedJS, _ := render(nil)
	firstOut, firstJS, firstTL := render(st)
	if strings.Contains(firstTL, "cached") {
		t.Fatalf("first store run claims cache hits:\n%s", firstTL)
	}
	secondOut, secondJS, secondTL := render(st)
	if got := strings.Count(secondTL, "cached"); got != len(ids) {
		t.Fatalf("second run: %d cached markers for %d ids:\n%s", got, len(ids), secondTL)
	}
	if !bytes.Equal(firstOut, secondOut) || !bytes.Equal(uncachedOut, secondOut) {
		t.Error("stdout differs between uncached, computed, and replayed runs")
	}
	if !bytes.Equal(firstJS, secondJS) || !bytes.Equal(uncachedJS, secondJS) {
		t.Error("-json output differs between uncached, computed, and replayed runs")
	}
}

// TestRunExperimentsWorkerCountInvariance checks the CLI's end-to-end
// guarantee: the bytes written to stdout for a multi-experiment run are
// identical at every -parallel value, in every output format.
func TestRunExperimentsWorkerCountInvariance(t *testing.T) {
	ids := []string{"table1", "fig9a", "corner", "cache-mpki"}
	render := func(workers int, format string) []byte {
		t.Helper()
		var out, timings bytes.Buffer
		if err := runExperiments(context.Background(), nil, &out, &timings, nil, ids, fastOpts(workers), format, format == "text", 0); err != nil {
			t.Fatalf("%s workers=%d: %v", format, workers, err)
		}
		if got := strings.Count(timings.String(), "took"); got != len(ids) {
			t.Fatalf("%s workers=%d: %d timing lines for %d ids", format, workers, got, len(ids))
		}
		return out.Bytes()
	}
	for _, format := range []string{"text", "csv", "json"} {
		serial := render(1, format)
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial output", format)
		}
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			if got := render(w, format); !bytes.Equal(serial, got) {
				t.Errorf("%s: workers=%d stdout differs from serial", format, w)
			}
		}
	}
}

// TestGoldenStoreKeys: each rendering in the key corpus, recorded before
// the bench key payload moved into internal/spec, is stored under the
// same key, so existing -store directories keep replaying.
func TestGoldenStoreKeys(t *testing.T) {
	b, err := os.ReadFile("../../internal/spec/testdata/keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name  string `json:"name"`
		Bench *struct {
			ID           string  `json:"id"`
			Quick        bool    `json:"quick"`
			Format       string  `json:"format"`
			Plot         bool    `json:"plot"`
			Seed         *uint64 `json:"seed"`
			Warmup       *int64  `json:"warmup"`
			Measure      *int64  `json:"measure"`
			ConvergeStop bool    `json:"converge_stop"`
		} `json:"bench"`
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &corpus); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range corpus {
		if e.Bench == nil {
			continue
		}
		n++
		dir := t.TempDir()
		args := []string{"-run", e.Bench.ID, "-store", dir, "-parallel", "2"}
		for flag, on := range map[string]bool{"-quick": e.Bench.Quick, "-plot": e.Bench.Plot, "-converge-stop": e.Bench.ConvergeStop} {
			if on {
				args = append(args, flag)
			}
		}
		if e.Bench.Format != "" {
			args = append(args, "-format", e.Bench.Format)
		}
		if e.Bench.Seed != nil {
			args = append(args, "-seed", fmt.Sprint(*e.Bench.Seed))
		}
		if e.Bench.Warmup != nil {
			args = append(args, "-warmup", fmt.Sprint(*e.Bench.Warmup))
		}
		if e.Bench.Measure != nil {
			args = append(args, "-measure", fmt.Sprint(*e.Bench.Measure))
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\n%s", e.Name, code, errb.String())
		}
		paths, _ := filepath.Glob(filepath.Join(dir, "*", "*.res"))
		if len(paths) != 1 || strings.TrimSuffix(filepath.Base(paths[0]), ".res") != e.Key {
			t.Errorf("%s: stored %v, want key %s", e.Name, paths, e.Key)
		}
	}
	if n == 0 {
		t.Fatal("no hirise-bench entries in the key corpus")
	}
}
