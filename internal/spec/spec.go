// Package spec is the one description of "what to simulate" shared by
// every front end. hirise-served decodes a Job from the body of
// POST /jobs and hirise-sim parses one from its flags. The package owns
// the defaults, the validation, the switch and traffic factories a job
// names, and the store-key payload of every result kind, so the same
// computation is spelled, checked and hashed one way everywhere.
package spec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/reprolab/hirise/internal/experiments"
)

// Job is one computation: either a registered paper experiment or an
// ad-hoc load sweep of one switch. It is the body of POST /jobs, and its
// normalized form (not the raw body) is what an "experiment" or
// "loadsweep" store key hashes, so spelling-level differences between
// equivalent submissions still hit the same cache entry.
type Job struct {
	// Kind selects the computation: "experiment" or "loadsweep".
	Kind string `json:"kind"`

	// Experiment fields (Kind "experiment").

	// Experiment is a registered experiment ID (see hirise-bench -list).
	Experiment string `json:"experiment,omitempty"`
	// Quick selects the reduced smoke-run fidelity.
	Quick bool `json:"quick,omitempty"`
	// Format renders the result as "text", "csv", or "json" (default
	// "text").
	Format string `json:"format,omitempty"`

	// Load-sweep fields (Kind "loadsweep").

	// Design is "2d", "folded", or "hirise" (default "hirise").
	Design string `json:"design,omitempty"`
	// Radix, Layers, Channels, Classes, Scheme, Alloc mirror the
	// hirise-sim flags (defaults: 64, 4, 4, 3, "clrg", "input").
	Radix    int    `json:"radix,omitempty"`
	Layers   int    `json:"layers,omitempty"`
	Channels int    `json:"channels,omitempty"`
	Classes  int    `json:"classes,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Alloc    string `json:"alloc,omitempty"`
	// Traffic is the pattern name (default "uniform"); Target and Burst
	// parameterize hotspot and bursty traffic. A zero Burst means a mean
	// burst of 8.
	Traffic string  `json:"traffic,omitempty"`
	Target  int     `json:"target,omitempty"`
	Burst   float64 `json:"burst,omitempty"`
	// Loads lists the sweep's offered loads explicitly; alternatively
	// Lo/Hi/Step describe an inclusive range. Exactly one form must be
	// given.
	Loads []float64 `json:"loads,omitempty"`
	Lo    float64   `json:"lo,omitempty"`
	Hi    float64   `json:"hi,omitempty"`
	Step  float64   `json:"step,omitempty"`
	// VCs and Flits mirror -vcs and -flits (defaults 4 and 4).
	VCs   int `json:"vcs,omitempty"`
	Flits int `json:"flits,omitempty"`

	// Shared fidelity overrides (0 keeps the kind's default).

	Seed    uint64 `json:"seed,omitempty"`
	Warmup  int64  `json:"warmup,omitempty"`
	Measure int64  `json:"measure,omitempty"`
}

// Limits a load sweep must respect, so that no request can make a front
// end allocate without bound before it has been admitted.
const (
	// MaxLoads bounds the points of one sweep, counted before Lo/Hi/Step
	// is expanded.
	MaxLoads = 1000
	// MaxRadix bounds the switch radix; arbitration state grows with its
	// square.
	MaxRadix = 256
	// MaxVCs bounds the virtual channels per input port, as the fabric
	// does: every port allocates a slot per VC.
	MaxVCs = 64
)

// Defaults returns the value every zero load-sweep field takes in
// Normalize. hirise-sim's flags default to the same values.
func Defaults() Job {
	return Job{
		Design: "hirise", Radix: 64, Layers: 4, Channels: 4, Classes: 3,
		Scheme: "clrg", Alloc: "input", Traffic: "uniform",
		VCs: 4, Flits: 4, Seed: 1, Warmup: 10000, Measure: 50000,
	}
}

// FieldError reports a job field that failed validation. Field is the
// JSON name, which is also the hirise-sim flag name for every field but
// loads.
type FieldError struct {
	Field, Msg string
}

func (e *FieldError) Error() string { return e.Field + " " + e.Msg }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Normalize validates the job and fills defaults in place, so the
// struct afterwards is the canonical identity of the computation: an
// omitted field and its default spell the same job, enum names are
// lowercase, and a Lo/Hi/Step range is expanded into Loads.
func (j *Job) Normalize() error {
	switch j.Kind {
	case "experiment":
		if _, err := experiments.Get(j.Experiment); err != nil {
			return err
		}
		if j.Format == "" {
			j.Format = "text"
		}
		if !slices.Contains(experiments.Formats, j.Format) {
			return fieldErr("format", "%q is unknown (want one of %v)", j.Format, experiments.Formats)
		}
		return nil
	case "loadsweep":
		d := Defaults()
		orDefault(&j.Design, d.Design)
		orDefault(&j.Radix, d.Radix)
		orDefault(&j.Layers, d.Layers)
		orDefault(&j.Channels, d.Channels)
		orDefault(&j.Classes, d.Classes)
		orDefault(&j.Scheme, d.Scheme)
		orDefault(&j.Alloc, d.Alloc)
		orDefault(&j.Traffic, d.Traffic)
		orDefault(&j.VCs, d.VCs)
		orDefault(&j.Flits, d.Flits)
		orDefault(&j.Seed, d.Seed)
		orDefault(&j.Warmup, d.Warmup)
		orDefault(&j.Measure, d.Measure)
		if err := j.Check(); err != nil {
			return err
		}
		// Building the factories validates design/scheme/alloc/traffic.
		_, _, err := j.Factories()
		return err
	}
	return fieldErr("kind", "%q is unknown (want experiment or loadsweep)", j.Kind)
}

func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// Check canonicalizes and range-checks a load sweep without filling
// defaults, so a zero keeps whatever meaning the engine gives it (a zero
// window or seed selects the simulator's default). It lowercases the
// enum names and expands Lo/Hi/Step into Loads. The enums themselves are
// checked by the factories, which also reject what a pattern or design
// cannot draw on the switch (a hotspot target outside the radix, say).
func (j *Job) Check() error {
	for _, s := range []*string{&j.Design, &j.Scheme, &j.Alloc, &j.Traffic} {
		*s = strings.ToLower(*s)
	}
	if len(j.Loads) == 0 {
		if j.Step == 0 && j.Lo == 0 && j.Hi == 0 {
			return fieldErr("loads", "missing: give loads[] or lo/hi/step")
		}
		if !(j.Step > 0) || !(j.Hi >= j.Lo) {
			return fieldErr("loads", "range %v:%v:%v needs step > 0 and hi >= lo", j.Lo, j.Hi, j.Step)
		}
		// The point count is bounded before anything is allocated; the
		// in-loop bound catches steps lost to rounding at large |lo|.
		if (j.Hi-j.Lo)/j.Step >= MaxLoads {
			return fieldErr("loads", "range %v:%v:%v has more than %d points", j.Lo, j.Hi, j.Step, MaxLoads)
		}
		for l := j.Lo; l <= j.Hi+1e-12 && len(j.Loads) <= MaxLoads; l += j.Step {
			j.Loads = append(j.Loads, l)
		}
		j.Lo, j.Hi, j.Step = 0, 0, 0 // folded into Loads for the key
	} else if j.Step != 0 || j.Lo != 0 || j.Hi != 0 {
		return fieldErr("loads", "given twice: give loads[] or lo/hi/step, not both")
	}
	switch {
	case len(j.Loads) > MaxLoads:
		return fieldErr("loads", "has %d points, more than %d", len(j.Loads), MaxLoads)
	case slices.ContainsFunc(j.Loads, func(l float64) bool { return !(l >= 0) || math.IsInf(l, 1) }):
		return fieldErr("loads", "must be finite and at least 0")
	case j.Radix < 1 || j.Radix > MaxRadix:
		return fieldErr("radix", "%d is outside [1, %d]", j.Radix, MaxRadix)
	case j.VCs < 0 || j.VCs > MaxVCs:
		return fieldErr("vcs", "%d is outside [0, %d]", j.VCs, MaxVCs)
	case j.Flits < 0:
		return fieldErr("flits", "%d is negative", j.Flits)
	case j.Warmup < 0:
		return fieldErr("warmup", "%d is negative", j.Warmup)
	case j.Measure < 0:
		return fieldErr("measure", "%d is negative", j.Measure)
	}
	return nil
}

// ExperimentOpts assembles the experiment options a job selects.
func (j Job) ExperimentOpts() experiments.Opts {
	o := experiments.DefaultOpts()
	if j.Quick {
		o = experiments.QuickOpts()
	}
	if j.Seed != 0 {
		o.Seed = j.Seed
	}
	if j.Warmup != 0 {
		o.Warmup = j.Warmup
	}
	if j.Measure != 0 {
		o.Measure = j.Measure
	}
	return o
}
