// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and the serving stack in this process,
// checks every output against reference hashes, and prints its metrics,
// ending with one JSON line.
//
//	perfbench --workload serve-hot --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload twice (untraced, then traced under a CPU profile)
// and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// bench is one workload: setUp builds a fresh environment (timed as
// setup_s), measure runs the measured phase on it, tearDown releases it.
type bench interface {
	setUp() error
	measure(tr *tracer, r *result) error
	tearDown() error
}

var workloads = []string{"campaign", "serve-hot", "serve-cluster"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: campaign, serve-hot or serve-cluster")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "measured span of the serve workloads' schedules")
		traceOn  = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores, profiles and traces")
		refsOut  = flag.String("write-refs", "", "record the reference hashes for the current model version into this file and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *refsOut != "" {
		if err := writeRefs(*refsOut, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	work, err := os.MkdirTemp(*outDir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	// The reference hashes are parsed once, before any timed set-up.
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var b bench
	setups := 15 // before the measured phase, and as many after it
	switch *workload {
	case "campaign":
		b, err = newCampaign(refs.Campaign)
	case "serve-hot", "serve-cluster":
		b, err = newServeBench(*workload, *seed, time.Duration(*seconds)*time.Second, work, refs.Specs)
		if *workload == "serve-hot" {
			setups = 3 // each fills a 1024-entry store
		}
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	var r *result
	defs := endToEnd
	if *traceOn == 1 {
		defs = perLayer
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *workload, *seed))
		r, err = traced(b, *workload, work, base)
	} else {
		r, err = untraced(b, setups)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if miss := r.missing(defs); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not report %v\n", *workload, miss)
		return 2
	}
	return report(r, defs)
}

// setupGap separates the repeated set-ups of an untraced run.
const setupGap = 100 * time.Millisecond

// untraced sets the workload up several times before the measured
// phase and as many times after it, and reports the median set-up time:
// the host's speed drifts over seconds, and set-ups at both ends of the
// run keep one slow spell from setting the median. The measured phase
// runs on the last set-up before it.
func untraced(b bench, setups int) (*result, error) {
	r := newResult()
	var times samples
	setUp := func() error {
		// Spread the set-ups out so that one burst of load on the host
		// cannot slow all of them, and start each from the same heap.
		time.Sleep(setupGap)
		runtime.GC()
		t0 := time.Now()
		if err := b.setUp(); err != nil {
			b.tearDown()
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		return nil
	}
	for k := 0; k < setups; k++ {
		if k > 0 {
			if err := b.tearDown(); err != nil {
				return nil, err
			}
		}
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuSeconds()
	err := b.measure(nil, r)
	r.set("cpu_s", cpuSeconds()-cpu0, 1)
	if terr := b.tearDown(); err == nil {
		err = terr
	}
	r.set("peak_rss_mb", peakRSSMiB(), 1)
	if err != nil {
		return nil, err
	}
	for k := 0; k < setups; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
		if err := b.tearDown(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.4g\n", times)
	r.set("setup_s", times.median(), len(times))
	return r, nil
}

// traced measures the workload once untraced, for the overhead
// reference, then again with spans and a CPU profile, then runs the
// layer probes. Spans go to <base>.trace.json, the profile to
// <base>.cpu.pprof.
func traced(b bench, workload, work, base string) (*result, error) {
	ref := newResult()
	if err := b.setUp(); err != nil {
		b.tearDown()
		return nil, err
	}
	cpu0 := cpuSeconds()
	err := b.measure(nil, ref)
	refCPU := cpuSeconds() - cpu0
	if terr := b.tearDown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.problems = ref.problems
	if err := b.setUp(); err != nil {
		b.tearDown()
		return nil, err
	}
	tr := newTracer()
	prof, err := startCPUProfile(base + ".cpu.pprof")
	if err != nil {
		b.tearDown()
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 = cpuSeconds()
	err = b.measure(tr, r)
	tracedCPU := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if terr := b.tearDown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}

	self, err := selfSeconds(prof.path)
	if err != nil {
		return nil, err
	}
	for _, m := range profiledModules {
		r.set("self_s."+m, self[m], 0)
	}
	r.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 0)
	r.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), 0)
	// The campaign does fixed work, so tracing shows in its wall time;
	// the serve workloads run a fixed schedule, so it shows in CPU time.
	if workload == "campaign" {
		r.set("trace.overhead_share", r.metrics["wall_s"].value/ref.metrics["wall_s"].value, 2)
	} else {
		r.set("trace.overhead_share", tracedCPU/refCPU, 2)
	}
	r.set("failed_share", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	if err := layerProbes[workload](tr, work, r); err != nil {
		return nil, err
	}
	n, err := tr.writeChromeTrace(base + ".trace.json")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d trace events to %s.trace.json\n", n, base)

	// Layers the workload never calls read 0.
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.set(d.name, 0, 0)
		}
	}
	return r, nil
}

// report prints every metric of defs by name with its unit and sample
// count, then the JSON result line. It returns the exit code: 1 when an
// output was wrong or the run was invalid.
func report(r *result, defs []metricDef) int {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	metrics := map[string]any{}
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Printf("%-30s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		metrics[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	if _, ok := metrics["failed_share"]; !ok {
		fmt.Printf("%-30s %14.6g %-6s n=%d\n", "failed_share", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
