package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
	"time"
)

// ProfileConfig names the host-side profiling outputs a CLI run should
// produce. Empty fields are off. These observe the Go process, not the
// simulated switch, and write only to the named side files.
type ProfileConfig struct {
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile, MemProfile string
	// ExecTrace is a runtime/trace output path (go tool trace).
	ExecTrace string
	// RuntimeMetrics is a JSON dump path for a runtime/metrics snapshot
	// taken at stop time.
	RuntimeMetrics string
}

// StartProfiles starts the configured profilers and returns a stop
// function that finishes them (writing the heap profile and the
// runtime/metrics snapshot). The stop function must be called exactly
// once; it returns the first error encountered.
func StartProfiles(pc ProfileConfig) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			rtrace.Stop()
			traceF.Close()
		}
	}
	if pc.CPUProfile != "" {
		cpuF, err = os.Create(pc.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			cpuF = nil
			cleanup()
			return nil, err
		}
	}
	if pc.ExecTrace != "" {
		traceF, err = os.Create(pc.ExecTrace)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err = rtrace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		keep := func(err error) {
			if firstErr == nil && err != nil {
				firstErr = err
			}
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			keep(cpuF.Close())
		}
		if traceF != nil {
			rtrace.Stop()
			keep(traceF.Close())
		}
		if pc.MemProfile != "" {
			keep(WriteFile(pc.MemProfile, func(w io.Writer) error {
				runtime.GC() // up-to-date allocation statistics
				return pprof.WriteHeapProfile(w)
			}))
		}
		if pc.RuntimeMetrics != "" {
			keep(WriteFile(pc.RuntimeMetrics, WriteRuntimeMetrics))
		}
		return firstErr
	}, nil
}

// WriteRuntimeMetrics dumps a snapshot of every scalar runtime/metrics
// value as one sorted-key JSON document. Histogram-kind metrics are
// summarized to their total sample count (the full distributions belong
// in pprof/exec traces, not here).
func WriteRuntimeMetrics(w io.Writer) error {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := map[string]any{}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			var n uint64
			for _, c := range s.Value.Float64Histogram().Counts {
				n += c
			}
			out[s.Name+":count"] = n
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Heartbeat starts a goroutine that writes progress() to w every
// interval until the returned stop function is called. It is the
// stderr liveness signal for long sweeps; an interval <= 0 is a no-op.
// The stop function is idempotent and waits for the goroutine to exit,
// so nothing is written after it returns.
func Heartbeat(w io.Writer, interval time.Duration, progress func() string) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(w, "heartbeat: %s (elapsed %s)\n",
					progress(), time.Since(start).Round(time.Second))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// WriteFile creates path and runs write over it, naming the path in any
// error: a side file that silently vanishes is worse than none.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// RemovePartials deletes the side files an interrupted run may have left
// half-written, reporting each to errw (missing files are fine).
func RemovePartials(errw io.Writer, paths ...string) {
	for _, p := range paths {
		if p == "" {
			continue
		}
		if err := os.Remove(p); err == nil {
			fmt.Fprintf(errw, "removed partial %s\n", p)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(errw, "removing partial %s: %v\n", p, err)
		}
	}
}
