package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The goldens were recorded from the hirise-sim binary before the job
// description moved into internal/spec. A store key that drifts orphans
// every cached run on disk, so they are never regenerated.
const goldenDir = "../../internal/spec/testdata"

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// runSim drives run and fails the test on a non-zero exit.
func runSim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("hirise-sim %s: exit %d\n%s", strings.Join(args, " "), code, errb.String())
	}
	return out.String(), errb.String()
}

// storedKeys lists the hex keys of the entries in a result store.
func storedKeys(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = strings.TrimSuffix(filepath.Base(p), ".res")
	}
	return keys
}

// TestGoldenStoreKeys: every flag set in the corpus stores its result
// under the recorded key, so existing -store directories keep replaying.
func TestGoldenStoreKeys(t *testing.T) {
	var corpus []struct {
		Name string   `json:"name"`
		Sim  []string `json:"sim"`
		Key  string   `json:"key"`
	}
	readGolden(t, "keys.json", &corpus)
	n := 0
	for _, e := range corpus {
		if e.Sim == nil {
			continue
		}
		n++
		t.Run(e.Name, func(t *testing.T) {
			dir := t.TempDir()
			runSim(t, slices.Concat(e.Sim, []string{"-store", dir})...)
			if got := storedKeys(t, dir); len(got) != 1 || got[0] != e.Key {
				t.Errorf("stored under %v, want %s", got, e.Key)
			}
		})
	}
	if n == 0 {
		t.Fatal("no hirise-sim entries in the key corpus")
	}
}

// TestGoldenStdout: each corpus run prints the recorded bytes, directly,
// through a -store miss, and on the -store replay.
func TestGoldenStdout(t *testing.T) {
	var corpus []struct {
		Name   string   `json:"name"`
		Args   []string `json:"args"`
		Stdout string   `json:"stdout"`
	}
	readGolden(t, "stdout.json", &corpus)
	for _, e := range corpus {
		t.Run(e.Name, func(t *testing.T) {
			if got, _ := runSim(t, e.Args...); got != e.Stdout {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, e.Stdout)
			}
			store := slices.Concat(e.Args, []string{"-store", t.TempDir()})
			if got, _ := runSim(t, store...); got != e.Stdout {
				t.Fatalf("-store miss stdout:\n%s\nwant:\n%s", got, e.Stdout)
			}
			got, errs := runSim(t, store...)
			if got != e.Stdout {
				t.Fatalf("-store replay stdout:\n%s\nwant:\n%s", got, e.Stdout)
			}
			if !strings.Contains(errs, "(served from store)") {
				t.Errorf("second -store run was not a replay; stderr:\n%s", errs)
			}
		})
	}
}

// TestRejectsBadJobs: flag sets whose run would panic exit 1 before
// simulating, naming the flag at fault.
func TestRejectsBadJobs(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		// -target defaults to 63, which a radix-16 switch does not have.
		{[]string{"-design", "2d", "-radix", "16", "-traffic", "hotspot"}, "-target"},
		{[]string{"-design", "voq", "-radix", "16", "-traffic", "hotspot"}, "-target"},
		{[]string{"-design", "2d", "-radix", "16", "-traffic", "adversarial"}, "-radix"},
		{[]string{"-design", "folded", "-radix", "10"}, "-layers"},
		{[]string{"-radix", "0"}, "-radix"},
		{[]string{"-load", "-0.5"}, "-load"},
		{[]string{"-sweep", "0:1:0.0001"}, "-sweep"},
		{[]string{"-warmup", "-1"}, "-warmup"},
		{[]string{"-vcs", "1000000000"}, "-vcs"},
		{[]string{"-flits", "-1"}, "-flits"},
	} {
		var out, errb bytes.Buffer
		code := run(append(c.args, "-measure", "400"), &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), c.flag) || out.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1 naming %s", c.args, code, errb.String(), out.String(), c.flag)
		}
	}
}
