package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/store"
)

// corpusBodies returns the request bodies of testdata/keys.json, the
// store keys recorded before this package existed. The serve,
// hirise-sim and hirise-bench tests check those keys end to end; here
// the bodies seed the fuzzer.
func corpusBodies(t testing.TB) [][]byte {
	t.Helper()
	b, err := os.ReadFile("testdata/keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Serve json.RawMessage `json:"serve"`
	}
	if err := json.Unmarshal(b, &corpus); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, e := range corpus {
		if e.Serve != nil {
			bodies = append(bodies, e.Serve)
		}
	}
	return bodies
}

// decode reads a job body the way POST /jobs does.
func decode(data []byte) (Job, error) {
	var j Job
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&j)
	return j, err
}

func memStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestNormalizeRejects: each body below describes a job the switch or
// its traffic cannot run, which would panic or allocate without bound
// in a worker; Normalize must reject it on the field named.
func TestNormalizeRejects(t *testing.T) {
	for _, c := range []struct{ body, field string }{
		{`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":99,"loads":[0.1]}`, "target"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":-1,"loads":[0.1]}`, "target"},
		{`{"kind":"loadsweep","design":"2d","radix":-3,"loads":[0.1]}`, "radix"},
		{`{"kind":"loadsweep","design":"folded","radix":-3,"loads":[0.1]}`, "radix"},
		{`{"kind":"loadsweep","radix":512,"loads":[0.1]}`, "radix"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"lo":0,"hi":1,"step":1e-8}`, "loads"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"lo":0,"hi":1000,"step":1}`, "loads"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"loads":[0.1,-0.2]}`, "loads"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"vcs":1000000000,"loads":[0.1]}`, "vcs"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"vcs":-1,"loads":[0.1]}`, "vcs"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"flits":-4,"loads":[0.1]}`, "flits"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"loads":[0.1],"warmup":-1}`, "warmup"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"loads":[0.1],"measure":-1}`, "measure"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"adversarial","loads":[0.1]}`, "radix"},
		{`{"kind":"loadsweep","design":"folded","radix":10,"layers":4,"loads":[0.1]}`, "layers"},
		{`{"kind":"loadsweep","design":"2d","radix":9,"traffic":"layerlocal","loads":[0.1]}`, "layers"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"binadv","channels":-1,"loads":[0.1]}`, "channels"},
		{`{"kind":"loadsweep","alloc":"output","channels":1000000,"loads":[0.1]}`, "channels"},
		{`{"kind":"loadsweep","design":"tesseract","loads":[0.1]}`, "design"},
		{`{"kind":"loadsweep","scheme":"fifo","loads":[0.1]}`, "scheme"},
		{`{"kind":"loadsweep","alloc":"random","loads":[0.1]}`, "alloc"},
		{`{"kind":"loadsweep","traffic":"tornado","loads":[0.1]}`, "traffic"},
		{`{"kind":"experiment","experiment":"table1","format":"yaml"}`, "format"},
		{`{"kind":"simulate"}`, "kind"},
	} {
		j, err := decode([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		var fe *FieldError
		if err := j.Normalize(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("%s: Normalize() = %v, want a %s error", c.body, err, c.field)
		}
	}
}

// TestRangeBoundedBeforeExpansion: an oversized lo/hi/step range is
// refused from its arithmetic, before a single load is allocated.
func TestRangeBoundedBeforeExpansion(t *testing.T) {
	j := Job{Kind: "loadsweep", Lo: 0, Hi: 1, Step: 1e-8}
	if err := j.Normalize(); err == nil || j.Loads != nil {
		t.Fatalf("Normalize() = %v with %d loads expanded, want an error and none", err, len(j.Loads))
	}
}

// TestCheckKeepsZeros: Check, unlike Normalize, leaves zero fields for
// the engine to interpret, which is what hirise-sim's explicit -seed 0
// and -warmup 0 rely on.
func TestCheckKeepsZeros(t *testing.T) {
	j := Job{Kind: "loadsweep", Design: "2D", Radix: 8, Lo: 0.1, Hi: 0.3, Step: 0.1}
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	want := Job{Kind: "loadsweep", Design: "2d", Radix: 8, Loads: []float64{0.1, 0.2, 0.30000000000000004}}
	if !reflect.DeepEqual(j, want) {
		t.Fatalf("Check() left %+v, want %+v", j, want)
	}
}

// FuzzSpecRoundTrip: Normalize never panics; decode → Normalize →
// encode → decode → Normalize is idempotent and keeps the key; and any
// job that normalizes builds its switch and traffic, whose first draw
// per input lands on an output of the switch.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, body := range corpusBodies(f) {
		f.Add(body)
	}
	f.Add([]byte(`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":99,"loads":[0.1]}`))
	f.Add([]byte(`{"kind":"loadsweep","design":"2d","radix":-3,"loads":[0.1]}`))
	f.Add([]byte(`{"kind":"loadsweep","design":"2d","radix":8,"lo":0,"hi":1,"step":1e-8}`))
	st := memStore(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := decode(data)
		if err != nil || j.Normalize() != nil {
			return
		}
		enc, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("encoding %+v: %v", j, err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("decoding %s: %v", enc, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("%s normalized once but not twice: %v", enc, err)
		}
		if !reflect.DeepEqual(j, again) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", j, again)
		}
		k1, err1 := j.Key(st)
		k2, err2 := again.Key(st)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("keys %s (%v) and %s (%v) differ", k1, err1, k2, err2)
		}
		if j.Kind != "loadsweep" {
			return
		}
		mkSwitch, mkTraffic, err := j.Factories()
		if err != nil {
			t.Fatalf("%s normalized but has no factories: %v", enc, err)
		}
		if sw := mkSwitch(); sw.Radix() != j.Radix {
			t.Fatalf("%s: switch radix %d", enc, sw.Radix())
		}
		traf, rng := mkTraffic(), prng.New(j.Seed)
		for in := 0; in < j.Radix; in++ {
			if out, ok := traf.Next(in, 0, 1, rng); ok && (out < 0 || out >= j.Radix) {
				t.Fatalf("%s: input %d drew output %d", enc, in, out)
			}
		}
	})
}
