package main

import (
	"fmt"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/machine"
	"rdasched/internal/memtrace"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/profiler"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/workloads"
)

// workload is one named benchmark workload. prepare builds a unit's
// inputs from the seed; the program only ever sees those inputs.
type workload struct {
	name    string
	prepare func(seed uint64) unit
}

// unit is one closed-loop iteration of a workload. run goes through the
// program's own entry point (what users call); traced runs the same
// computation wired by hand with every layer boundary wrapped by tr.
type unit interface {
	run() (outputs, error)
	traced(tr *tracer) (outputs, error)
}

var benchWorkloads = []workload{
	{"paper-sweep", preparePaperSweep},
	{"thread-scale", prepareThreadScale},
	{"gate-churn", prepareGateChurn},
	{"wss-profile", prepareWSSProfile},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paper-sweep: Figs 7-10 exactly as cmd/experiments runs them, serially.

type paperSweep struct {
	ws  []proc.Workload
	opt experiments.Options
}

func preparePaperSweep(seed uint64) unit {
	opt := experiments.Defaults()
	opt.Seed = seed
	opt.Jobs = 1
	return &paperSweep{ws: workloads.Table2(), opt: opt}
}

func (u *paperSweep) run() (outputs, error) {
	rows, err := experiments.RunPolicyComparison(u.ws, u.opt)
	if err != nil {
		return outputs{}, err
	}
	var out outputs
	for _, r := range rows {
		out.Cells = append(out.Cells, cellOf(r.Workload+"/"+r.Policy, r.Mean, 0))
	}
	return out, nil
}

// traced replays RunPolicyComparison's job enumeration: cells in
// (workload, policy) order, repetitions within a cell, job i seeded
// with runner.Seed(opt.Seed, i) and run as repetition 0.
func (u *paperSweep) traced(tr *tracer) (outputs, error) {
	var out outputs
	job := uint64(0)
	for _, w := range u.ws {
		for _, p := range experiments.Policies() {
			rc := perf.RunConfig{
				Machine:     u.opt.Machine,
				Policy:      p.Policy,
				Repetitions: u.opt.Repetitions,
				JitterFrac:  u.opt.JitterFrac,
			}
			events := tr.events
			var samples []perf.Metrics
			for r := 0; r < rc.Reps(); r++ {
				rc.Seed = runner.Seed(u.opt.Seed, job)
				job++
				m, err := wiredSample(w, rc, tr)
				if err != nil {
					return outputs{}, fmt.Errorf("%s under %s: %w", w.Name, p.Name, err)
				}
				samples = append(samples, m)
			}
			mean, _, err := perf.Aggregate(samples)
			if err != nil {
				return outputs{}, err
			}
			out.Cells = append(out.Cells, cellOf(w.Name+"/"+p.Name, mean, tr.events-events))
		}
	}
	return out, nil
}

// thread-scale and gate-churn: one perf.Run of a generated workload.

type simRun struct {
	w  proc.Workload
	rc perf.RunConfig
}

func (u *simRun) run() (outputs, error) {
	mean, _, err := perf.Run(u.w, u.rc)
	if err != nil {
		return outputs{}, err
	}
	return outputs{Cells: []cellOut{cellOf(u.w.Name, mean, 0)}, blame: mean.Blame}, nil
}

func (u *simRun) traced(tr *tracer) (outputs, error) {
	events := tr.events
	m, err := wiredSample(u.w, u.rc, tr)
	if err != nil {
		return outputs{}, err
	}
	mean, _, err := perf.Aggregate([]perf.Metrics{m})
	if err != nil {
		return outputs{}, err
	}
	return outputs{Cells: []cellOut{cellOf(u.w.Name, mean, tr.events-events)}, blame: mean.Blame}, nil
}

const (
	threadScaleProcs  = 1536
	gateChurnProcs    = 24
	gateChurnPeriods  = 400
	seedSaltThreads   = 0x7468726561647363 // "threadsc"
	seedSaltGateChurn = 0x6761746563687572 // "gatechur"
)

func prepareThreadScale(seed uint64) unit {
	return threadScale(seed, threadScaleProcs)
}

// threadScale runs n undeclared processes under the default policy.
func threadScale(seed uint64, n int) *simRun {
	return &simRun{
		w:  threadScaleWorkload(seed, n),
		rc: perf.RunConfig{Machine: machine.DefaultConfig(), Seed: seed},
	}
}

func prepareGateChurn(seed uint64) unit {
	return gateChurn(seed, gateChurnProcs, gateChurnPeriods)
}

// gateChurn runs a gate-churn workload of the given size under Strict
// admission on four LLC domains with every decision observer attached.
func gateChurn(seed uint64, procs, periods int) *simRun {
	return &simRun{
		w: gateChurnWorkload(seed, procs, periods),
		rc: perf.RunConfig{
			Machine:   machine.DefaultConfig(),
			Policy:    core.StrictPolicy{},
			Domains:   4,
			Telemetry: true,
			Trace:     true,
			Blame:     true,
			Seed:      seed,
		},
	}
}

// threadScaleWorkload returns n single-thread processes that each run
// one undeclared phase. Lengths and working sets are drawn from seed,
// so the processes finish one at a time and every completion is its
// own engine event.
func threadScaleWorkload(seed uint64, n int) proc.Workload {
	rng := sim.NewRNG(seed ^ seedSaltThreads)
	w := proc.Workload{Name: "thread-scale"}
	for i := 0; i < n; i++ {
		w.Procs = append(w.Procs, proc.Spec{
			Name:    fmt.Sprintf("t%04d", i),
			Threads: 1,
			Program: proc.Program{{
				Name:             "run",
				Instr:            1e8 + 4e8*rng.Float64(),
				WSS:              256*pp.KiB + pp.Bytes(rng.Uint64n(uint64(4*pp.MiB))),
				Reuse:            pp.Reuse(rng.Intn(3)),
				AccessesPerInstr: 0.3,
				PrivateHitFrac:   0.9,
				StreamFrac:       0.1,
				FlopsPerInstr:    0.5,
			}},
		})
	}
	return w
}

// gateChurnWorkload returns procs single-thread processes that each run
// periods short declared phases with working sets drawn from seed in
// [0.5, 8.5) MiB: against a 4-way split 15 MiB LLC most pp_begins are
// denied, so admission, waitlist, placement and steal do the work.
func gateChurnWorkload(seed uint64, procs, periods int) proc.Workload {
	rng := sim.NewRNG(seed ^ seedSaltGateChurn)
	w := proc.Workload{Name: "gate-churn"}
	for i := 0; i < procs; i++ {
		prog := make(proc.Program, periods)
		for j := range prog {
			prog[j] = proc.Phase{
				Name:             "pp",
				Instr:            1e6 + 3e6*rng.Float64(),
				WSS:              pp.MiB/2 + pp.Bytes(rng.Uint64n(uint64(8*pp.MiB))),
				Reuse:            pp.Reuse(rng.Intn(3)),
				AccessesPerInstr: 0.3,
				PrivateHitFrac:   0.8,
				StreamFrac:       0.1,
				FlopsPerInstr:    0.5,
				Declared:         true,
			}
		}
		w.Procs = append(w.Procs, proc.Spec{Name: fmt.Sprintf("c%02d", i), Threads: 1, Program: prog})
	}
	return w
}

// wss-profile: one Figure 12 profiling job.

const wssMolecules = 8000

type wssProfile struct {
	seed uint64
	cfg  profiler.Config
}

func prepareWSSProfile(seed uint64) unit {
	return &wssProfile{seed: seed, cfg: workloads.Fig12ProfilerConfig()}
}

func (u *wssProfile) run() (outputs, error) {
	s, bin := workloads.WaterNsqTrace(wssMolecules, u.seed)
	periods, err := profiler.Profile(s, u.cfg, bin)
	return outputs{Periods: periods}, err
}

// traced drains the same-seed trace alone first (trace generation
// cost), then runs profiler.Profile's three stages one by one.
func (u *wssProfile) traced(tr *tracer) (outputs, error) {
	gen, _ := workloads.WaterNsqTrace(wssMolecules, u.seed)
	t0 := time.Now()
	n := drain(gen)
	t1 := time.Now()
	s, bin := workloads.WaterNsqTrace(wssMolecules, u.seed)
	wins, err := profiler.Windows(s, u.cfg)
	if err != nil {
		return outputs{}, err
	}
	t2 := time.Now()
	periods, err := profiler.DetectPeriods(wins, u.cfg)
	if err != nil {
		return outputs{}, err
	}
	t3 := time.Now()
	profiler.Annotate(periods, bin)
	t4 := time.Now()
	tr.refs += n
	tr.genTime += t1.Sub(t0)
	tr.windowsTime += t2.Sub(t1)
	tr.detectTime += t3.Sub(t2)
	tr.annotate += t4.Sub(t3)
	tr.windows += uint64(len(wins))
	tr.periods += uint64(len(periods))
	return outputs{Periods: periods}, nil
}

func drain(s memtrace.Stream) uint64 {
	var n uint64
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}
