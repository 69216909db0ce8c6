package main

import (
	"fmt"
	"math"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// wiredSample runs repetition 0 of rc on w the way perf.Sample does,
// but wired by hand so every interface the machine and the gate call
// each other through passes a tracer wrapper. It supports the subset of
// RunConfig the benchmark's workloads use and refuses the rest, and it
// checks what perf.Run cannot show: retired instructions equal the
// instructions the workload declares, and the blame report conserves
// wait time. The benchmark compares its Metrics bit for bit with
// perf.Run's, which is what shows this wiring is the program's own.
func wiredSample(w proc.Workload, rc perf.RunConfig, tr *tracer) (perf.Metrics, error) {
	if rc.Faults != nil || rc.Governor != nil || rc.Checkpoint != nil || rc.Restore != nil ||
		rc.Obsrv != nil || rc.Pace != 0 || rc.SLO != nil || rc.Reserve != 0 ||
		rc.Lease != 0 || rc.AdmitDeadline != 0 || rc.StealAge != 0 || rc.Recovery != nil {
		return perf.Metrics{}, fmt.Errorf("wired run: configuration outside the benchmark's subset")
	}
	if err := w.Validate(); err != nil {
		return perf.Metrics{}, err
	}
	if rc.JitterFrac > 0 {
		w = jitter(w, rc.JitterFrac, sim.NewRNG(runner.Seed(rc.Seed+0x5eed, 0)))
	}
	cfg := rc.Machine
	cfg.Seed = rc.Seed * 1000
	if rc.Policy == nil {
		w = perf.Undeclare(w)
	}

	var (
		gate  admission
		dset  *core.DomainSet
		timed machine.Gate // stays a nil interface for the ungated baseline
	)
	switch {
	case rc.Policy == nil:
	case rc.Domains >= 1:
		d, err := core.NewDomainSet(rc.Policy, cfg.LLCCapacity, core.DomainConfig{Domains: rc.Domains})
		if err != nil {
			return perf.Metrics{}, err
		}
		d.SetResourceCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
		gate, dset = d, d
	default:
		s := core.New(rc.Policy, cfg.LLCCapacity)
		s.Resources().SetCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
		gate = s
	}
	if gate != nil {
		timed = &timedGate{g: gate, tr: tr}
	}

	tr.enter(layerBuild)
	m := machine.New(cfg, timed)
	tr.exit()

	var (
		reg  *telemetry.Registry
		col  *trace.Collector
		bcol *blame.Collector
	)
	if gate != nil {
		gate.SetWaker(&timedWaker{m: m, tr: tr})
		gate.SetClock(m.Now)
		gate.SetTimer(&timedTimer{eng: m.Engine(), tr: tr})
		gate.SetLease(0)
		gate.SetAdmissionDeadline(0)
		if rc.Telemetry {
			reg = telemetry.NewRegistry()
			gate.SetMetrics(reg)
		}
		if rc.Trace {
			col = trace.NewCollector()
			gate.AddSink(&timedSink{s: col, tr: tr})
		}
		if rc.Blame {
			bcol = blame.NewCollector()
			gate.AddSink(&timedBlameSink{s: bcol, tr: tr})
		}
	}
	eng := m.Engine()
	eng.SetStepHook(func(sim.Time) {
		if n := eng.Pending(); n > tr.queueMax {
			tr.queueMax = n
		}
	})

	tr.enter(layerBuild)
	err := m.AddWorkload(w)
	tr.exit()
	if err != nil {
		return perf.Metrics{}, err
	}
	before := tr.self
	tr.enter(layerMachine)
	res, err := m.Run()
	tr.exit()
	for l := range tr.self {
		tr.runTime += tr.self[l] - before[l]
	}
	if err != nil {
		return perf.Metrics{}, err
	}
	tr.events += eng.Fired()
	threads := 0
	for _, s := range w.Procs {
		threads += s.Threads
	}
	tr.threads = max(tr.threads, threads)
	if err := checkInstructions(w, res); err != nil {
		return perf.Metrics{}, err
	}

	var rob core.Stats
	if gate != nil {
		tr.enter(layerCore)
		gate.Quiesce()
		rob = gate.Stats()
		tr.exit()
		tr.denied += rob.Denied
		tr.woken += rob.Woken
		if reg != nil {
			tr.enter(layerTelemetry)
			gate.PublishStats(reg)
			tr.exit()
		}
		if col != nil {
			tr.enter(layerTrace)
			col.Finish(m.Now())
			tr.exit()
		}
	}
	var brpt *blame.Report
	if bcol != nil {
		tr.enter(layerBlameFin)
		bcol.Finish(m.Now())
		brpt = bcol.Report()
		tr.exit()
		tr.enter(layerTelemetry)
		brpt.Publish(reg)
		tr.exit()
		if err := brpt.Check(); err != nil {
			return perf.Metrics{}, err
		}
	}
	if dset != nil {
		dst := dset.DomainStats()
		tr.placements += dst.Placements
		tr.steals += dst.Steals
	}
	return perf.Metrics{
		Blame:        brpt,
		SystemJ:      res.SystemJ,
		DRAMJ:        res.DRAMJ,
		PackageJ:     res.PackageJ,
		GFLOPS:       res.GFLOPS(),
		ElapsedSec:   res.Elapsed.Seconds(),
		DRAMAccesses: res.Counters.DRAMAccesses,
		AvgBusyCores: res.AvgBusyCores,
		Blocks:       res.Counters.PPBlocks,
		Wakeups:      res.Counters.Wakeups,
	}, nil
}

// admission is the part of *core.Scheduler and *core.DomainSet that
// wiredSample binds and reads.
type admission interface {
	machine.Gate
	SetWaker(core.Waker)
	SetClock(core.Clock)
	SetTimer(core.Timer)
	SetLease(sim.Duration)
	SetAdmissionDeadline(sim.Duration)
	SetMetrics(*telemetry.Registry)
	AddSink(core.EventSink)
	Quiesce() int
	Stats() core.Stats
	PublishStats(*telemetry.Registry)
}

// checkInstructions requires the machine to retire every instruction
// the workload declares, within the relative bound the workload tests
// use.
func checkInstructions(w proc.Workload, res *machine.Result) error {
	var want float64
	for _, s := range w.Procs {
		want += float64(s.Threads) * s.Program.TotalInstr()
	}
	if got := res.Counters.Instructions; math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("instructions retired %v, declared %v", got, want)
	}
	return nil
}

// jitter perturbs each phase's instruction count by a uniform factor in
// [1-frac, 1+frac], drawing from rng in the same order perf.Sample does.
func jitter(w proc.Workload, frac float64, rng *sim.RNG) proc.Workload {
	out := proc.Workload{Name: w.Name, Procs: make([]proc.Spec, len(w.Procs))}
	for i, s := range w.Procs {
		cs := s
		cs.Program = make(proc.Program, len(s.Program))
		copy(cs.Program, s.Program)
		for j := range cs.Program {
			cs.Program[j].Instr *= 1 + frac*(2*rng.Float64()-1)
		}
		out.Procs[i] = cs
	}
	return out
}
