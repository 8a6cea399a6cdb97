package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/spec"
)

// Request is the body of POST /jobs: a paper experiment or an ad-hoc
// load sweep, described, defaulted, validated and keyed by package spec.
type Request = spec.Job

// SweepPoint is one row of a loadsweep result body.
type SweepPoint struct {
	Load   float64    `json:"load"`
	Result sim.Result `json:"result"`
}

// compute runs the job's computation under ctx — the store's
// singleflight context, live while any client still wants the result —
// and returns the result body. It is only called on a cache miss.
func (s *Server) compute(ctx context.Context, j *job) ([]byte, error) {
	switch j.req.Kind {
	case "experiment":
		opts := j.req.ExperimentOpts()
		opts.Workers = s.cfg.SimWorkers
		opts.Progress = func() { j.progress.Add(1) }
		t, err := experiments.RunCtx(ctx, j.req.Experiment, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := t.Render(&buf, j.req.Format); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil

	case "loadsweep":
		mkSwitch, mkTraffic, err := j.req.Factories()
		if err != nil {
			return nil, err
		}
		counted := func() sim.Switch {
			j.progress.Add(1)
			return mkSwitch()
		}
		base := sim.Config{
			PacketFlits: j.req.Flits, VCs: j.req.VCs,
			Warmup: j.req.Warmup, Measure: j.req.Measure,
			Seed: j.req.Seed, Ctx: ctx,
		}
		results, err := sim.LoadSweep(base, counted, mkTraffic, j.req.Loads, s.cfg.SimWorkers)
		if err != nil {
			return nil, err
		}
		points := make([]SweepPoint, len(results))
		for i, res := range results {
			points[i] = SweepPoint{Load: j.req.Loads[i], Result: res}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("serve: unknown kind %q", j.req.Kind)
}

// contentType returns the Content-Type of a job's result body.
func contentType(r Request) string {
	if r.Kind == "loadsweep" || r.Format == "json" {
		return "application/json"
	}
	if r.Format == "csv" {
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}
