package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/hirise"
)

// span is one timed call the benchmark made into a layer, or an
// interval a server reported for a request.
type span struct {
	name       string
	start, end time.Time
	parent     int   // id of the enclosing span, 0 at the top
	req        int64 // request id, 0 outside serve requests
	lane       int   // Chrome trace row
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced runs measure: every call
// site stays the same and pays one nil check.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a finished span and returns its id (0 when t is nil).
func (t *tracer) add(name string, start, end time.Time, parent int, req int64, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, req: req, lane: lane})
	return len(t.spans)
}

// timed runs fn inside a top-level span named name.
func (t *tracer) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(name, start, time.Now(), 0, 0, 0)
}

// chromeTrace renders the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), viewable in Perfetto.
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		ts := float64(s.start.Sub(t.base).Nanoseconds()) / 1e3
		dur := float64(s.end.Sub(s.start).Nanoseconds()) / 1e3
		if ts < 0 {
			dur += ts
			ts = 0
		}
		if dur < 0 {
			dur = 0
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: ts, Dur: dur, Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "req": s.req},
		})
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeChromeTrace writes the trace to path and checks it with the
// repository's public trace validator.
func (t *tracer) writeChromeTrace(path string) (int, error) {
	data, err := t.chromeTrace()
	if err != nil {
		return 0, err
	}
	n, err := hirise.ValidateChromeTrace(data)
	if err != nil {
		return 0, fmt.Errorf("chrome trace: %w", err)
	}
	return n, os.WriteFile(path, data, 0o644)
}

// cpuProfile covers the measured phase of a traced run.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// selfSeconds runs `go tool pprof -top` over the profile and sums each
// function's flat (self) time into its module.
func selfSeconds(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errOut.String())
	}
	return parsePprofTop(out.Bytes())
}

// parsePprofTop reads the flat column of `pprof -top` output.
func parsePprofTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		self[moduleOf(fields[5])] += flat.Seconds()
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no table:\n%s", out)
	}
	return self, sc.Err()
}

const repoPath = "github.com/reprolab/hirise"

// moduleOf maps a profiled function name to the layer it belongs to:
// the repository's internal packages by their own names, this benchmark
// as "bench", the Go runtime as "runtime", net/http and encoding/json
// by name, and everything else as "other".
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, repoPath+"/internal/"):
		rest := strings.TrimPrefix(pkg, repoPath+"/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == repoPath+"/perfbench" || pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// packageOf strips the function part from a fully qualified Go symbol:
// the package path ends at the first '.' after its last '/'.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
