// Command hirise-sim runs a single network simulation of one switch
// configuration under one traffic pattern and prints its measurements —
// the exploratory companion to cmd/hirise-bench's fixed experiments.
//
// Examples:
//
//	hirise-sim -design hirise -channels 4 -scheme clrg -traffic uniform -load 0.15
//	hirise-sim -design 2d -traffic hotspot -load 0.002 -perinput
//	hirise-sim -design hirise -channels 1 -scheme l2l -traffic adversarial -load 1
//
// VOQ crossbar mode (flat virtual-output-queued switch driven by the
// input-queued scheduler zoo, no 3D structure or physical model):
//
//	hirise-sim -design voq -sched islip -iters 2 -traffic uniform -load 1
//	hirise-sim -design voq -sched wavefront -speedup 2 -sweep 0.1:1.0:0.1
//	hirise-sim -design voq -sched mwm -radix 16 -measure 5000 -load 0.9
//
// Multi-switch fabric mode (every router a full switch wired by a
// pluggable topology with credit-based link flow control and VC-class
// deadlock avoidance):
//
//	hirise-sim -design fabric -topo mesh -nodes 16 -conc 4 -load 0.2
//	hirise-sim -design fabric -topo dragonfly -groups 9 -groupsize 4 -globalports 2 -routing valiant -traffic shift -load 1 -check
//	hirise-sim -design fabric -topo fbfly -mesh-w 4 -mesh-h 4 -sweep 0.1:1.0:0.1 -parallel 4
//	hirise-sim -design fabric -topo mesh -lanes 2 -fail-links 4 -fail-routers 1 -check
//
// Fault injection (hirise design only; deterministic in the fault seed):
//
//	hirise-sim -fail-channels 8 -load 1 -check
//	hirise-sim -fault-rate 0.0005 -fault-repair 64 -sweep 0.05:0.3:0.05 -check
//
// Observability (all output to side files or stderr; stdout is
// byte-identical to an unobserved run):
//
//	hirise-sim -traffic hotspot -load 0.05 -trace-chrome trace.json -fairness fairness.txt
//	hirise-sim -sweep 0.01:0.3:0.01 -metrics metrics.json -heartbeat 10s
//	hirise-sim -sweep 0.01:0.5:0.005 -cpuprofile cpu.pprof -runmetrics rt.json
//
// Time-series telemetry (windowed counter/gauge tracks from the hot
// loop; -tele-chrome counter tracks load in ui.perfetto.dev alongside
// -trace-chrome slices) and MSER steady-state early exit:
//
//	hirise-sim -load 0.2 -tele-ndjson tele.ndjson -tele-window 256
//	hirise-sim -sweep 0.05:0.3:0.05 -tele-chrome counters.json -trace-chrome trace.json
//	hirise-sim -load 0.1 -measure 500000 -converge-stop
//
// -store DIR caches each run's stdout in a content-addressed result
// store keyed by the full configuration, the loads, and the model
// version, so repeating a run replays it byte-identically without
// simulating. Observability sinks record switch internals, so runs with
// any obs flag bypass the store.
//
// SIGINT/SIGTERM cancels the run within one sweep point (or a few
// thousand cycles of a single run) and removes partially-written
// profile side files before exiting non-zero.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/spec"
	"github.com/reprolab/hirise/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// session is what the three modes share: the checked job, the output
// streams, and the sweep and observability plumbing.
type session struct {
	// job is the run's switch and traffic description. Its Loads hold
	// the sweep points, or the single -load.
	job          spec.Job
	sweep        bool
	workers      int
	perInput     bool
	convergeStop bool
	heartbeat    time.Duration
	stderr       io.Writer
	newObserver  func() *hirise.Observer
	writeObs     func(observers []*hirise.Observer, labels []float64) error
}

// observe starts the progress heartbeat and, when an obs flag is set,
// one observer per run; at returns run i's observer, or nil when none
// is set, which keeps the simulator on its allocation-free path. finish
// stops the heartbeat and, once the runs succeeded, writes the side
// files in run order, the order that keeps every artifact byte-identical
// at any -parallel value.
func (s *session) observe(progress func() string) (at func(i int) *hirise.Observer, finish func(error) error) {
	var observers []*hirise.Observer
	if s.newObserver() != nil {
		observers = make([]*hirise.Observer, len(s.job.Loads))
		for i := range observers {
			observers[i] = s.newObserver()
		}
	}
	stopHB := hirise.Heartbeat(s.stderr, s.heartbeat, progress)
	at = func(i int) *hirise.Observer {
		if observers == nil {
			return nil
		}
		return observers[i]
	}
	return at, func(err error) error {
		stopHB()
		if err != nil || observers == nil {
			return err
		}
		var labels []float64 // fairness section headers, for sweeps only
		if s.sweep {
			labels = s.job.Loads
		}
		return s.writeObs(observers, labels)
	}
}

// flagError names the flag behind a job validation error.
func flagError(err error) error {
	var fe *spec.FieldError
	switch {
	case !errors.As(err, &fe):
		return err
	case fe.Field == "loads":
		return fmt.Errorf("-load/-sweep %s", fe.Msg)
	}
	return fmt.Errorf("-%v", fe)
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}
	fs := flag.NewFlagSet("hirise-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The single-switch flags parse straight into the job.
	job := spec.Defaults()
	job.Kind = "loadsweep"
	fs.StringVar(&job.Design, "design", job.Design, "switch design: 2d | folded | hirise | voq | fabric")
	fs.IntVar(&job.Radix, "radix", job.Radix, "switch radix")
	fs.IntVar(&job.Layers, "layers", job.Layers, "stacked layers (folded, hirise)")
	fs.IntVar(&job.Channels, "channels", job.Channels, "L2LC multiplicity (hirise)")
	fs.StringVar(&job.Scheme, "scheme", job.Scheme, "arbitration: l2l | wlrg | clrg (hirise)")
	fs.StringVar(&job.Alloc, "alloc", job.Alloc, "channel allocation: input | output | priority")
	fs.IntVar(&job.Classes, "classes", job.Classes, "CLRG class count")
	fs.StringVar(&job.Traffic, "traffic", job.Traffic, "uniform | hotspot | adversarial | bursty | permutation | bitrev | interlayer | layerlocal | binadv")
	fs.IntVar(&job.Target, "target", 63, "hotspot target output")
	fs.Float64Var(&job.Burst, "burst", 8, "mean burst length for bursty traffic")
	fs.Int64Var(&job.Warmup, "warmup", job.Warmup, "warmup cycles")
	fs.Int64Var(&job.Measure, "measure", job.Measure, "measurement cycles")
	fs.Uint64Var(&job.Seed, "seed", job.Seed, "random seed")
	fs.IntVar(&job.VCs, "vcs", job.VCs, "virtual channels per input")
	fs.IntVar(&job.Flits, "flits", job.Flits, "flits per packet")
	var (
		load     = fs.Float64("load", 0.1, "offered load, packets/cycle/input")
		perInput = fs.Bool("perinput", false, "print per-input latency and throughput")

		// VOQ crossbar mode (-design voq): input-queued scheduler zoo.
		schedName = fs.String("sched", "islip", "VOQ scheduler: islip | wavefront | mwm (mwm is O(n^3) per cycle: keep -radix or the windows small)")
		iters     = fs.Int("iters", 2, "iSLIP iterations per scheduling phase (-sched islip)")
		speedupS  = fs.Int("speedup", 1, "internal crossbar speedup S: scheduling phases per cell time")
		voqCap    = fs.Int("voqcap", 32, "per-(input,output) VOQ capacity in cells")
		outqCap   = fs.Int("outqcap", 16, "output queue capacity in cells (binds when speedup > 1)")

		// Multi-switch fabric mode (-design fabric): every router a full
		// switch wired by a pluggable topology (fabric.go).
		topoName    = fs.String("topo", "mesh", "fabric topology: mesh | fbfly | dragonfly (-design fabric)")
		nodes       = fs.Int("nodes", 0, "fabric router count; square grids take W=H=sqrt(N), dragonfly geometry must agree (0 = use the shape flags)")
		meshW       = fs.Int("mesh-w", 4, "fabric grid width (mesh, fbfly)")
		meshH       = fs.Int("mesh-h", 4, "fabric grid height (mesh, fbfly)")
		conc        = fs.Int("conc", 2, "fabric cores per router")
		lanes       = fs.Int("lanes", 1, "fabric parallel lanes per logical link")
		groups      = fs.Int("groups", 9, "dragonfly group count")
		groupSize   = fs.Int("groupsize", 4, "dragonfly routers per group")
		globalPorts = fs.Int("globalports", 2, "dragonfly global link bundles per router (groupsize*globalports must equal groups-1)")
		routing     = fs.String("routing", "min", "fabric routing: min | valiant")
		failLinks   = fs.Int("fail-links", 0, "fabric: permanently fail this many link lanes, chosen deterministically from the fault seed (at most lanes-1 per bundle, so routing reroutes around every one)")
		failRouters = fs.Int("fail-routers", 0, "fabric: fail-stop this many routers (flows they sever retire as dead flows)")

		sweep    = fs.String("sweep", "", "sweep loads lo:hi:step (packets/cycle/input) instead of a single run")
		workers  = fs.Int("parallel", 0, "concurrent sweep points (0 = all CPUs, 1 = serial); results are identical at any value")
		storeDir = fs.String("store", "",
			"cache stdout in this content-addressed result store; repeated runs replay byte-identically (bypassed when any obs flag is set)")

		// Fault plane: deterministic seeded fault injection (hirise only).
		faultSeed = fs.Uint64("fault-seed", 0, "fault-plane seed (0 = use -seed)")
		failCh    = fs.Int("fail-channels", 0, "permanently fail this many L2LCs, chosen deterministically from the fault seed")
		faultRate = fs.Float64("fault-rate", 0, "per-channel transient outage probability per cycle (lossy links; sources retransmit)")
		faultRep  = fs.Int64("fault-repair", 0, "mean transient outage length in cycles (0 = default)")
		check     = fs.Bool("check", false, "run the self-checking invariant layer (failed-resource grants and flit conservation)")

		// Observability: switch-internals sinks, written to side files.
		traceJSONL  = fs.String("trace-jsonl", "", "write flit lifecycle events as JSON Lines to this file")
		traceChrome = fs.String("trace-chrome", "", "write flit lifecycle events as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		traceMax    = fs.Int("trace-max", 0, "max recorded events per run (0 = default cap); excess is counted, not recorded")
		metricsOut  = fs.String("metrics", "", "write the metrics registry as JSON to this file (sweeps: one array entry per point)")
		fairnessOut = fs.String("fairness", "", "write the arbitration fairness report to this file (sweeps: one section per point)")

		// Time-series telemetry: windowed counter/gauge tracks sampled in
		// the simulator hot loop (internal/tele).
		teleNDJSON = fs.String("tele-ndjson", "", "write windowed telemetry time series as NDJSON to this file (one line per run and series)")
		teleChrome = fs.String("tele-chrome", "", "write telemetry counter tracks as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		teleWindow = fs.Int64("tele-window", 0, "telemetry window length in cycles (0 = 256)")
		teleMax    = fs.Int("tele-max", 0, "max stored telemetry windows per series; older windows decimate pairwise (0 = 512)")
		convStop   = fs.Bool("converge-stop", false,
			"stop each run early once the MSER steady-state detector converges on the delivery-rate series (deterministic; changes results, so stored keys differ)")

		// Host-side profiling of the simulator process itself.
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		exectrace  = fs.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
		runmetrics = fs.String("runmetrics", "", "write a runtime/metrics JSON snapshot to this file at exit")
		heartbeat  = fs.Duration("heartbeat", 0, "print progress to stderr at this interval (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// SIGINT/SIGTERM cancels ctx; the simulator polls it between cycles
	// and the sweep pool skips pending points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	typed := job // the single-switch report echoes -design and -traffic as typed
	if *sweep != "" {
		var err error
		if job.Lo, job.Hi, job.Step, err = parseSweep(*sweep); err != nil {
			return fail("%v", err)
		}
	} else {
		job.Loads = []float64{*load}
	}
	if err := job.Check(); err != nil {
		return fail("%v", flagError(err))
	}
	design := job.Design
	isVOQ, isFabric := design == "voq", design == "fabric"
	// The store keys hold the flags as given; two knobs are then read the
	// hirise-sim way. -burst clamps to 1 where the job's zero means a mean
	// burst of 8, and the 2d design is a one-layer configuration.
	raw := job
	job.Burst = max(job.Burst, 1)
	if design == "2d" {
		job.Layers = 1
	}
	cfg, err := job.Config()
	if err != nil {
		return fail("%v", flagError(err))
	}

	// Build the factories and the physical cost once: they are pure, and
	// safe to call from concurrent sweep points. The VOQ crossbar has no
	// physical model and drives its own switch; the fabric builds traffic
	// over its cores and validates its own flags in fabricCLI.config.
	tech := hirise.Tech32nm()
	var cost hirise.Cost
	var makeSwitch func() hirise.SimSwitch
	var makeTraffic func() hirise.TrafficPattern
	switch {
	case isVOQ:
		makeTraffic, err = job.TrafficFactory()
	case !isFabric:
		makeSwitch, makeTraffic, err = job.Factories()
		cost = hirise.CostOf(cfg, tech)
		if design == "folded" {
			cost = hirise.FoldedCost(job.Radix, job.Layers, tech)
		}
	}
	if err != nil {
		return fail("%v", flagError(err))
	}
	if (*failLinks > 0 || *failRouters > 0) && !isFabric {
		return fail("-fail-links/-fail-routers need -design fabric (use -fail-channels for the hirise fault plane)")
	}
	// Fault plane: build the plan once (it is immutable and shared by
	// concurrent sweep points). Only the Hi-Rise design has L2LCs to
	// fault. With no fault flags set, faultPlan stays nil and every code
	// path below — including stdout — is identical to a fault-free build.
	// A zero -fault-seed follows -seed, here and in the fabric.
	fseed := *faultSeed
	if fseed == 0 {
		fseed = job.Seed
	}
	var faultPlan *hirise.FaultPlan
	if *failCh > 0 || *faultRate > 0 {
		if design != "hirise" {
			return fail("fault injection needs -design hirise (the %s design has no L2LCs)", typed.Design)
		}
		plan, err := hirise.FaultSpec{
			Seed: fseed, Campaign: "hirise-sim", Cfg: cfg,
			FailChannels:  *failCh,
			TransientRate: *faultRate, RepairMean: *faultRep,
			Horizon: job.Warmup + job.Measure,
		}.Build()
		if err != nil {
			return fail("%v", err)
		}
		faultPlan = plan
	}

	// Observability sinks: a nil observer (no obs flag set) keeps the
	// simulator on its allocation-free disabled path. The fairness audit
	// is class-aware only where classes exist: a Hi-Rise CLRG switch.
	wantTrace := *traceJSONL != "" || *traceChrome != ""
	wantTele := *teleNDJSON != "" || *teleChrome != ""
	auditClasses := 1
	if design == "hirise" && cfg.Scheme == hirise.CLRG {
		auditClasses = job.Classes
	}
	newObserver := func() *hirise.Observer {
		o := &hirise.Observer{}
		if *metricsOut != "" {
			o.Metrics = hirise.NewMetricsRegistry()
		}
		if wantTrace {
			o.Trace = hirise.NewTraceRecorder(*traceMax)
		}
		if *fairnessOut != "" {
			o.Fairness = hirise.NewFairnessAudit(job.Radix, auditClasses)
		}
		if wantTele {
			o.Tele = hirise.NewTelemetrySampler(*teleWindow, *teleMax)
		}
		if o.Metrics == nil && o.Trace == nil && o.Fairness == nil && o.Tele == nil {
			return nil
		}
		return o
	}
	// writeObsOutputs merges per-run sinks in run order — the order that
	// keeps every artifact byte-identical at any -parallel value — and
	// writes the requested side files. labels annotate fairness sections
	// for sweeps (nil for a single run).
	writeObsOutputs := func(observers []*hirise.Observer, labels []float64) error {
		recs := make([]*hirise.TraceRecorder, len(observers))
		regs := make([]*hirise.MetricsRegistry, len(observers))
		samps := make([]*hirise.TelemetrySampler, len(observers))
		for i, o := range observers {
			if o != nil {
				recs[i], regs[i], samps[i] = o.Trace, o.Metrics, o.Tele
			}
		}
		metrics := func(w io.Writer) error {
			if labels == nil && len(regs) == 1 {
				return regs[0].WriteJSON(w)
			}
			return hirise.WriteMetricsJSON(w, regs)
		}
		fairness := func(w io.Writer) error {
			for i, o := range observers {
				if o == nil || o.Fairness == nil {
					continue
				}
				if labels != nil {
					if _, err := fmt.Fprintf(w, "== load %.4f ==\n", labels[i]); err != nil {
						return err
					}
				}
				if err := o.Fairness.Report().WriteText(w); err != nil {
					return err
				}
			}
			return nil
		}
		// With telemetry on, -trace-chrome holds the flit slices and the
		// counter tracks in one document; without, the output is
		// byte-identical to plain WriteChromeTrace.
		for _, out := range []struct {
			path  string
			write func(io.Writer) error
		}{
			{*traceJSONL, func(w io.Writer) error { return hirise.WriteTraceJSONL(w, recs) }},
			{*traceChrome, func(w io.Writer) error { return hirise.WriteChromeTraceWithCounters(w, recs, samps) }},
			{*teleNDJSON, func(w io.Writer) error { return hirise.WriteTelemetryNDJSON(w, samps) }},
			{*teleChrome, func(w io.Writer) error { return hirise.WriteChromeTraceWithCounters(w, nil, samps) }},
			{*metricsOut, metrics},
			{*fairnessOut, fairness},
		} {
			if out.path == "" {
				continue
			}
			if err := obs.WriteFile(out.path, out.write); err != nil {
				return err
			}
		}
		return nil
	}

	sess := &session{
		job: job, sweep: *sweep != "", workers: *workers,
		perInput: *perInput, convergeStop: *convStop, heartbeat: *heartbeat,
		stderr: stderr, newObserver: newObserver, writeObs: writeObsOutputs,
	}

	// simBase is the hierarchical designs' simulation at load 0.
	simBase := func(ctx context.Context) hirise.SimConfig {
		return hirise.SimConfig{
			PacketFlits: job.Flits, VCs: job.VCs,
			Warmup: job.Warmup, Measure: job.Measure, Seed: job.Seed,
			Faults: faultPlan, Check: *check,
			ConvergeStop: *convStop,
			Ctx:          ctx,
		}
	}

	// runSweep simulates every load and prints the sweep table to w.
	runSweep := func(ctx context.Context, w io.Writer) error {
		var started atomic.Int64
		countedMakeSwitch := func() hirise.SimSwitch {
			started.Add(1)
			return makeSwitch()
		}
		obsAt, finish := sess.observe(func() string {
			return fmt.Sprintf("%d/%d sweep points started", started.Load(), len(job.Loads))
		})
		results, err := hirise.LoadSweepObserved(simBase(ctx), countedMakeSwitch, makeTraffic, job.Loads, *workers, obsAt)
		if err := finish(err); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %-12s %-12s %-10s %-8s %s",
			"load(pkt/cyc)", "load(pkt/ns)", "tput(pkt/ns)", "lat(ns)", "p99(cyc)", "state")
		if faultPlan != nil {
			fmt.Fprintf(w, "      faults(drop/retx/lost)")
		}
		fmt.Fprintln(w)
		for i, res := range results {
			state := "ok"
			if res.Saturated() {
				state = "saturated"
			}
			fmt.Fprintf(w, "%-14.4f %-12.4f %-12.2f %-10.2f %-8.0f %s",
				job.Loads[i], job.Loads[i]*cost.FreqGHz, res.AcceptedPackets*cost.FreqGHz,
				res.AvgLatency*cost.CycleNS(), res.P99Latency, state)
			if fs := res.Fault; fs != nil {
				fmt.Fprintf(w, "%*s %d/%d/%d", 9-len(state), "",
					fs.FlitsDropped, fs.Retransmissions, fs.RetryExhausted+fs.DeadFlows)
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	// runSingle simulates one load and prints the report to w.
	runSingle := func(ctx context.Context, w io.Writer) error {
		obsAt, finish := sess.observe(func() string { return "simulating" })
		sc := simBase(ctx)
		observer := obsAt(0)
		sc.Switch, sc.Traffic, sc.Load, sc.Obs = makeSwitch(), makeTraffic(), *load, observer
		res, err := hirise.Simulate(sc)
		if err := finish(err); err != nil {
			return err
		}

		fmt.Fprintf(w, "design      %s (%s)\n", typed.Design, cfg)
		fmt.Fprintf(w, "physical    %.3f mm2, %.2f GHz, %.0f pJ/transaction, %d TSVs\n",
			cost.AreaMM2, cost.FreqGHz, cost.EnergyPJ, cost.TSVs)
		fmt.Fprintf(w, "traffic     %s @ %.4f packets/cycle/input (%.4f packets/ns/input)\n",
			typed.Traffic, *load, *load*cost.FreqGHz)
		fmt.Fprintf(w, "accepted    %.3f packets/cycle = %.2f packets/ns = %.2f Tbps\n",
			res.AcceptedPackets, res.AcceptedPackets*cost.FreqGHz,
			hirise.Tbps(res.AcceptedFlits, cost, tech))
		fmt.Fprintf(w, "latency     avg %.1f cycles (%.2f ns), p50 %.0f, p99 %.0f\n",
			res.AvgLatency, res.AvgLatency*cost.CycleNS(), res.P50Latency, res.P99Latency)
		fmt.Fprintf(w, "packets     injected %d, delivered %d, dropped-at-source %d%s\n",
			res.Injected, res.Delivered, res.DroppedInjections,
			map[bool]string{true: "  (saturated)", false: ""}[res.Saturated()])
		// The steady-state verdict exists only when a sampler ran; the
		// line is gated the same way so an untelemetered run's stdout is
		// byte-identical to pre-telemetry builds.
		if (observer != nil && observer.Tele != nil) || *convStop {
			fmt.Fprintf(w, "steady      converged=%v suggested-warmup=%d cycles\n",
				res.Converged, res.WarmupCycles)
		}
		if fs := res.Fault; fs != nil {
			fmt.Fprintf(w, "faults      plan %d, applied %d fail / %d repair; flits dropped %d, retransmitted %d, retry-exhausted %d, dead flows %d\n",
				faultPlan.Len(), fs.FailEvents, fs.RepairEvents,
				fs.FlitsDropped, fs.Retransmissions, fs.RetryExhausted, fs.DeadFlows)
		}
		if *perInput {
			fmt.Fprintln(w, "\ninput  latency(cycles)  packets/cycle")
			for i := range res.PerInputLatency {
				fmt.Fprintf(w, "%5d  %15.1f  %13.5f\n", i, res.PerInputLatency[i], res.PerInputPackets[i])
			}
		}
		return nil
	}

	vc := voqCLI{
		session: sess, schedName: strings.ToLower(*schedName), iters: *iters,
		speedup: *speedupS, voqCap: *voqCap, outQCap: *outqCap, makeTraffic: makeTraffic,
	}
	fc := fabricCLI{
		session: sess, topoName: strings.ToLower(*topoName), nodes: *nodes,
		meshW: *meshW, meshH: *meshH, conc: *conc, lanes: *lanes,
		groups: *groups, groupSize: *groupSize, globalPorts: *globalPorts,
		routingName: strings.ToLower(*routing), check: *check,
		faultSeed: fseed, failLinks: *failLinks, failRouters: *failRouters,
	}
	// Reject bad scheduler, topology, routing or fabric traffic flags
	// before the store path.
	single, swept := runSingle, runSweep
	switch {
	case isVOQ:
		vc.newSched, err = vc.scheduler()
		single, swept = vc.runSingle, vc.runSweep
	case isFabric:
		fc.cfg, err = fc.config()
		single, swept = fc.runSingle, fc.runSweep
	}
	if err != nil {
		return fail("%v", err)
	}
	runOutput := single
	if sess.sweep {
		runOutput = swept
	}

	// Each kind keys the flags as given (lowercased), with the sweep's
	// loads, or none for a single run.
	var sweepLoads []float64
	if *sweep != "" {
		sweepLoads = raw.Loads
	}
	keyOf := func(st *store.Store) (store.Key, error) {
		switch {
		case isFabric:
			return spec.FabricKey{Topo: fc.topoName, Routing: fc.routingName, Traffic: raw.Traffic,
				Nodes: *nodes, MeshW: *meshW, MeshH: *meshH, Conc: *conc, Lanes: *lanes,
				Groups: *groups, GroupSize: *groupSize, GlobalPorts: *globalPorts,
				VCs: raw.VCs, Flits: raw.Flits, Target: raw.Target, Load: *load, Loads: sweepLoads,
				Warmup: raw.Warmup, Measure: raw.Measure, Seed: raw.Seed, FaultSeed: *faultSeed,
				FailLinks: *failLinks, FailRouters: *failRouters, Check: *check}.Key(st)
		case isVOQ:
			return spec.VOQKey{Sched: vc.schedName, Traffic: raw.Traffic,
				Radix: raw.Radix, Iters: *iters, Speedup: *speedupS, VOQCap: *voqCap, OutQCap: *outqCap,
				Target: raw.Target, Burst: raw.Burst, Load: *load, Loads: sweepLoads, PerInput: *perInput,
				Warmup: raw.Warmup, Measure: raw.Measure, Seed: raw.Seed, ConvergeStop: *convStop}.Key(st)
		}
		return spec.SimKey{Design: raw.Design, Scheme: raw.Scheme, Alloc: raw.Alloc, Traffic: raw.Traffic,
			Radix: raw.Radix, Layers: raw.Layers, Channels: raw.Channels, Classes: raw.Classes,
			Target: raw.Target, VCs: raw.VCs, Flits: raw.Flits, Burst: raw.Burst, Load: *load, Loads: sweepLoads,
			PerInput: *perInput, Warmup: raw.Warmup, Measure: raw.Measure, Seed: raw.Seed, FaultSeed: *faultSeed,
			FailChannels: *failCh, FaultRate: *faultRate, FaultRepair: *faultRep, Check: *check, ConvergeStop: *convStop}.Key(st)
	}

	stopProfiles, err := obs.StartProfiles(obs.ProfileConfig{
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		ExecTrace: *exectrace, RuntimeMetrics: *runmetrics,
	})
	if err != nil {
		return fail("%v", err)
	}

	obsActive := newObserver() != nil
	switch {
	case *storeDir != "" && obsActive:
		fmt.Fprintln(stderr, "note: observability flags record switch internals, bypassing -store")
		fallthrough
	case *storeDir == "":
		err = runOutput(ctx, stdout)
	default:
		var st *store.Store
		var key store.Key
		if st, err = store.Open(*storeDir, store.Options{}); err == nil {
			key, err = keyOf(st)
		}
		if err == nil {
			var data []byte
			var hit bool
			data, hit, err = st.GetOrCompute(ctx, key, func(cctx context.Context) ([]byte, error) {
				var b bytes.Buffer
				if rerr := runOutput(cctx, &b); rerr != nil {
					return nil, rerr
				}
				return b.Bytes(), nil
			})
			if err == nil {
				stdout.Write(data)
				if hit {
					fmt.Fprintln(stderr, "(served from store)")
				}
			}
		}
	}

	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if errors.Is(err, context.Canceled) {
		// CPU profiles and execution traces stream during the run, so an
		// interrupted run leaves them truncated — remove them. Obs side
		// files are only written after a successful run, so none exist.
		obs.RemovePartials(stderr, *cpuprofile, *memprofile, *exectrace, *runmetrics)
		return fail("hirise-sim: interrupted")
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

// parseSweep parses "lo:hi:step".
func parseSweep(s string) (lo, hi, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("sweep %q: want lo:hi:step", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, perr := strconv.ParseFloat(p, 64)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("sweep %q: %v", s, perr)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}
