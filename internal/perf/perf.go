// Package perf is the measurement harness standing in for the paper's
// use of Linux perf + RAPL: it runs a workload under a scheduling
// configuration, repeats the measurement (the paper averages four runs),
// and reports the metrics of §4.1 — system and DRAM energy in Joules,
// GFLOPS, and GFLOPS per Watt.
package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// Metrics are the paper's evaluation metrics for one workload run.
type Metrics struct {
	// SystemJ is energy consumed by CPU + caches + DRAM (Figure 7).
	SystemJ float64
	// DRAMJ is energy consumed by DRAM alone (Figure 8).
	DRAMJ float64
	// PackageJ is the package domain (SystemJ - DRAMJ).
	PackageJ float64
	// GFLOPS is average attained performance (Figure 9).
	GFLOPS float64
	// GFLOPSPerWatt is work per energy (Figure 10).
	GFLOPSPerWatt float64
	// ElapsedSec is the workload makespan in (virtual) seconds.
	ElapsedSec float64
	// DRAMAccesses counts LLC misses reaching memory.
	DRAMAccesses float64
	// AvgBusyCores is the time-averaged core occupancy.
	AvgBusyCores float64
	// Blocks and Wakeups count scheduler pause/resume events.
	Blocks, Wakeups uint64

	// Robustness counters (float64 so Aggregate averages them): lease
	// reclamations (including end-of-run Quiesce), deadline degradations
	// to stock admission, refused invalid demands, and the longest time
	// any period sat on the waitlist.
	ReclaimedLeases    float64
	FallbackAdmissions float64
	RejectedDemands    float64
	MaxWaitSec         float64

	// Governor counters (zero without RunConfig.Governor): policy ladder
	// steps toward shedding and back, breaker trips, clean-probe
	// restores, and aged-waiter capacity reservations.
	GovernorDegradations float64
	GovernorRecoveries   float64
	GovernorQuarantines  float64
	GovernorRestores     float64
	GovernorReservations float64

	// Domain counters (zero unless RunConfig.Domains >= 2): periods
	// assigned by the demand-aware placer and aged waiters migrated
	// cross-domain. A single-domain set makes no placement decisions.
	DomainPlacements float64
	DomainSteals     float64

	// Recovery counters (zero unless domain faults were injected):
	// shard crashes, periods moved off failed shards, backoff retry
	// ticks, ledger drifts repaired by the auditor, shards reintegrated,
	// and periods the RecoverDrop baseline degraded to untracked.
	DomainFailures   float64
	Evacuations      float64
	EvacRetries      float64
	AuditRepairs     float64
	DomainRecoveries float64
	DroppedPeriods   float64

	// Telemetry is the run's metrics registry (RunConfig.Telemetry):
	// the scheduler's counters plus wait-time, period-length,
	// occupancy, and waitlist-depth histograms. On an aggregate it is
	// the merge of every repetition's registry in repetition order.
	// Excluded from JSON encodings of Metrics — use its own
	// WriteJSON/WritePrometheus encoders.
	Telemetry *telemetry.Registry `json:"-"`
	// Spans are the run's decision traces (RunConfig.Trace), one span
	// per progress period. On an aggregate they are every repetition's
	// spans concatenated in repetition order, each stamped with its
	// repetition index.
	Spans []trace.Span `json:"-"`
	// Blame is the run's causal wait-attribution report
	// (RunConfig.Blame): interference matrix, per-period blame
	// timeline, and critical-path decomposition. On an aggregate,
	// repetitions merge in repetition order with Rep-stamped timelines.
	Blame *blame.Report `json:"-"`
	// SLO is the admission-latency SLO evaluation (RunConfig.SLO):
	// breach counts and the multi-window burn-rate timeline. Aggregates
	// merge in repetition order like Blame.
	SLO *blame.SLOResult `json:"-"`
}

// RunConfig describes one measured configuration.
type RunConfig struct {
	// Machine is the hardware model (machine.DefaultConfig for Table 1).
	Machine machine.Config
	// Policy selects the scheduling configuration. nil means the Linux
	// default policy: applications run *uninstrumented* — declared flags
	// are stripped, so no progress-period API overhead is charged and no
	// admission control happens.
	Policy core.Policy
	// Reserve withholds LLC capacity from admission (§6 extension; only
	// meaningful with a non-nil Policy).
	Reserve pp.Bytes
	// Repetitions is the number of measured runs to average (the paper
	// uses 4). 0 means 1.
	Repetitions int
	// JitterFrac perturbs per-run phase lengths by a uniform ±fraction,
	// making repetitions differ the way real runs do (the paper reports
	// an average standard deviation of 2%). 0 disables jitter.
	JitterFrac float64
	// Seed drives the jitter; each repetition forks its own stream.
	Seed uint64

	// Faults, when non-nil and enabled, perturbs the workload with seeded
	// misbehavior (misdeclared/oversized demands, leaked pp_ends, crashes,
	// arrival bursts) before the run; each repetition draws its own fault
	// pattern from Seed. See internal/faults.
	Faults *faults.Plan
	// Lease bounds how long an admitted period may stay registered before
	// the watchdog reclaims its load (0 disables; see core.SetLease).
	Lease sim.Duration
	// AdmitDeadline bounds how long a denied period may wait before it is
	// degraded to stock-scheduler admission (0 disables; see
	// core.SetAdmissionDeadline).
	AdmitDeadline sim.Duration
	// Governor, when non-nil and enabled, attaches the adaptive
	// admission governor (overload-aware policy degradation,
	// misdeclaration quarantine, waitlist aging) to each repetition's
	// scheduler. Only meaningful with a non-nil Policy.
	Governor *core.GovernorConfig

	// Domains shards the admission gate (core.DomainSet) into N
	// per-domain admission monitors with demand-aware placement and
	// cross-domain steal of aged waiters. Values <= 1 all mean one
	// domain: the paper's single admission monitor over the whole LLC.
	// Only meaningful with a non-nil Policy.
	Domains int
	// StealAge tunes the cross-domain steal age bar (0 selects
	// core.DefaultStealAge, negative disables stealing). Only
	// meaningful with Domains >= 2.
	StealAge sim.Duration
	// Recovery configures the domain fault/recovery subsystem; nil with
	// Faults.DomainFaults scheduled selects core.DefaultRecoveryConfig.
	// Only meaningful with Domains >= 2.
	Recovery *core.RecoveryConfig

	// Telemetry attaches a fresh metrics registry to each repetition's
	// scheduler (Metrics.Telemetry). Only meaningful with a non-nil
	// Policy — the baseline has no scheduler to observe.
	Telemetry bool
	// Trace subscribes a span collector to each repetition's decision
	// stream (Metrics.Spans).
	Trace bool
	// Blame subscribes the causal wait-attribution collector
	// (internal/telemetry/blame) to each repetition's decision stream
	// (Metrics.Blame). With Telemetry also set, the rda_blame_* families
	// publish into the repetition's registry. Only meaningful with a
	// non-nil Policy.
	Blame bool
	// SLO, when non-nil, attaches an admission-latency SLO monitor with
	// multi-window burn-rate alerting (Metrics.SLO; rda_slo_* families
	// with Telemetry). Only meaningful with a non-nil Policy.
	SLO *blame.SLOConfig

	// Checkpoint, when non-nil, attaches the crash-safe admission
	// journal and snapshot writer (internal/persist) to each
	// repetition's scheduler. Repetition 0 writes into Checkpoint.Dir
	// directly; repetition i > 0 into Dir/rep<i>. Combined with
	// Faults.KillAt the run dies mid-schedule (machine.ErrHalted),
	// leaving the checkpoint directory as the only survivor.
	// Incompatible with Faults.DomainFaults (the recovery subsystem's
	// injected state is not journaled) and with Restore.
	Checkpoint *persist.Config
	// Restore, when non-nil, resumes a killed run from a loaded
	// checkpoint: the pre-kill prefix is re-executed (the simulation is
	// deterministic), verified byte-for-byte against the restored state,
	// and then a scheduler built purely from the checkpoint takes over
	// the machine for the remainder. Requires Repetitions <= 1.
	Restore *persist.Restored
	// Jobs fans repetitions out across a worker pool (internal/runner);
	// <= 1 runs them serially. Results are bit-identical for every
	// value: each repetition is a pure function of (w, rc, rep), and
	// samples are aggregated in repetition order.
	Jobs int

	// Obsrv, when non-nil, attaches the live introspection server to
	// the run: the decision stream fans out to its /events hub, the
	// telemetry registry (with Telemetry set) becomes scrapeable at
	// /metrics, and the engine step hook publishes /state and /blame
	// snapshots. The server observes through non-blocking copies only,
	// so results are bit-identical to an unobserved run. A stop request
	// (SIGTERM in the CLIs) halts the run with ErrStopped.
	Obsrv *obsrv.Server
	// Pace throttles virtual time to Pace virtual seconds per wall
	// second (1 = real time, 10 = 10x speed); 0 runs unthrottled. The
	// pacer only sleeps between events, never reorders them, so a paced
	// run's results are identical to an unpaced one's.
	Pace float64
}

// ErrStopped reports a run halted by an external stop request
// (obsrv.Server.RequestStop — the CLIs' SIGTERM path). Callers that
// asked for the stop should treat it as a clean, intentional end of
// the run, not a failure.
var ErrStopped = errors.New("run stopped by request")

// Reps returns the effective repetition count (0 means 1).
func (rc RunConfig) Reps() int {
	if rc.Repetitions <= 0 {
		return 1
	}
	return rc.Repetitions
}

// Run measures a workload and returns the mean metrics and their
// standard deviation across repetitions, run by runner.Map on
// max(rc.Jobs, 1) workers: bit-identical for every worker count, every
// repetition runs, and the error is the lowest-index one.
func Run(w proc.Workload, rc RunConfig) (mean, stddev Metrics, err error) {
	samples, err := runner.Map(max(rc.Jobs, 1), rc.Reps(), func(i int) (Metrics, error) {
		return Sample(w, rc, i)
	})
	if err != nil {
		return Metrics{}, Metrics{}, fmt.Errorf("perf: %w", err)
	}
	return Aggregate(samples)
}

// Sample measures repetition rep of the configuration: Start, then
// Finish.
func Sample(w proc.Workload, rc RunConfig, rep int) (Metrics, error) {
	r, err := Start(w, rc, rep)
	if err != nil {
		return Metrics{}, err
	}
	m, _, err := r.Finish()
	return m, err
}

// Rep is one repetition of a configuration, wired but not yet run. Start
// builds it and Finish runs it; in between, a caller may enable the
// machine's timeline or subscribe further sinks to the gate.
type Rep struct {
	rc   RunConfig
	m    *machine.Machine
	gate *core.DomainSet // the live gate (nil for the baseline); revival replaces it

	// Observers, created on the first bind and subscribed to every gate
	// the run uses, so a revived run's streams cover it exactly once.
	reg   *telemetry.Registry
	col   *trace.Collector
	bcol  *blame.Collector
	smon  *blame.SLOMonitor
	sinks []core.EventSink
	pacer *obsrv.Pacer

	cp *persist.Checkpointer
	tr *stateTracker
}

// Start builds repetition rep of the configuration, ready to run. It is
// a pure function of (w, rc, rep): the fault and jitter streams derive
// from rc.Seed and rep alone, so repetitions may run concurrently, in
// any order, and still produce the exact metrics a serial loop would.
func Start(w proc.Workload, rc RunConfig, rep int) (*Rep, error) {
	if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 && rc.Domains < 2 {
		return nil, errors.New("perf: domain faults need Domains >= 2: a failed shard needs a survivor to evacuate to")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := validatePersist(rc); err != nil {
		return nil, err
	}
	if rc.Faults != nil && rc.Faults.Enabled() {
		w = rc.Faults.Apply(w, runner.Seed(rc.Seed+0xfa17, uint64(rep)))
	}
	if rc.JitterFrac > 0 {
		w = jitter(w, rc.JitterFrac, sim.NewRNG(runner.Seed(rc.Seed+0x5eed, uint64(rep))))
	}
	if rc.Policy == nil {
		w = Undeclare(w)
	}
	cfg := rc.Machine
	cfg.Seed = rc.Seed*1000 + uint64(rep)
	gate, err := newGate(rc, cfg)
	if err != nil {
		return nil, err
	}
	var mg machine.Gate
	if gate != nil {
		mg = gate
	}
	r := &Rep{rc: rc, m: machine.New(cfg, mg)}
	eng := r.m.Engine()
	if gate != nil {
		if err := r.bind(gate); err != nil {
			return nil, err
		}
	}
	if rc.Obsrv != nil || rc.Pace > 0 {
		r.pacer = obsrv.NewPacer(rc.Pace)
		eng.SetStepHook(r.step)
		if rc.Obsrv != nil {
			rc.Obsrv.SetReady(true)
		}
	}
	// Arm the process-death fault. A revival run re-arms the exact kill
	// its checkpoint recorded, so the pre-kill prefix re-executes
	// identically and halts at the same engine event.
	killAt := sim.Duration(0)
	if rc.Faults != nil && rc.Faults.KillAt > 0 {
		killAt = rc.Faults.KillAt
	}
	if rc.Restore != nil {
		killAt = rc.Restore.KillAt
	}
	if killAt > 0 {
		eng.After(killAt, eng.Halt)
	}
	if gate != nil && rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		if err := armDomainFaults(gate, eng, rc.Faults.DomainFaults); err != nil {
			return nil, err
		}
	}
	if rc.Checkpoint != nil {
		pcfg := *rc.Checkpoint
		pcfg.Dir = checkpointDir(pcfg.Dir, uint64(rep))
		if r.cp, err = persist.Attach(pcfg, gate, killAt); err != nil {
			return nil, err
		}
		gate.SetReplaySink(r.cp)
	}
	if rc.Restore != nil {
		if r.tr, err = newStateTracker(rc.Restore.State); err != nil {
			return nil, err
		}
		gate.SetReplaySink(r.tr)
	}
	if err := r.m.AddWorkload(w); err != nil {
		return nil, err
	}
	return r, nil
}

// Machine returns the repetition's machine.
func (r *Rep) Machine() *machine.Machine { return r.m }

// AddSink subscribes sink to the gate's decision stream for the whole
// run, revival included (a no-op for the ungated baseline).
func (r *Rep) AddSink(sink core.EventSink) {
	r.sinks = append(r.sinks, sink)
	if r.gate != nil {
		r.gate.AddSink(sink)
	}
}

// newGate builds the admission gate for one repetition (nil for the
// uninstrumented baseline). Start builds the first; revival builds a
// second, identical gate to import the checkpoint into.
func newGate(rc RunConfig, cfg machine.Config) (*core.DomainSet, error) {
	if rc.Policy == nil {
		return nil, nil
	}
	// RunConfig keeps the old "negative StealAge disables stealing"
	// contract; the core config expresses that as DisableSteal.
	dcfg := core.DomainConfig{Domains: max(rc.Domains, 1), StealAge: rc.StealAge}
	if rc.StealAge < 0 {
		dcfg.StealAge, dcfg.DisableSteal = 0, true
	}
	dset, err := core.NewDomainSet(rc.Policy, cfg.LLCCapacity, dcfg)
	if err != nil {
		return nil, err
	}
	// Track memory bandwidth as a second resource: periods declaring
	// BWDemand are gated against the machine's DRAM roofline, split
	// across the domains like the LLC budget.
	dset.SetResourceCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
	if rc.Reserve > 0 {
		dset.SetReserve(rc.Reserve)
	}
	if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		rcfg := core.DefaultRecoveryConfig()
		if rc.Recovery != nil {
			rcfg = *rc.Recovery
		}
		if err := dset.EnableRecovery(rcfg); err != nil {
			return nil, err
		}
	}
	return dset, nil
}

// bind makes g the repetition's live gate: it wires g to the machine and
// subscribes the observers, creating each on first use.
func (r *Rep) bind(g *core.DomainSet) error {
	rc := r.rc
	r.gate = g
	g.SetWaker(r.m)
	g.SetClock(r.m.Now)
	g.SetTimer(r.m.Engine())
	g.SetLease(rc.Lease)
	g.SetAdmissionDeadline(rc.AdmitDeadline)
	if rc.Governor != nil {
		g.EnableGovernor(*rc.Governor)
	}
	if rc.Telemetry {
		if r.reg == nil {
			r.reg = telemetry.NewRegistry()
		}
		g.SetMetrics(r.reg)
	}
	if rc.Trace {
		if r.col == nil {
			r.col = trace.NewCollector()
		}
		g.AddSink(r.col)
	}
	if rc.Blame {
		if r.bcol == nil {
			r.bcol = blame.NewCollector()
		}
		g.AddSink(r.bcol)
	}
	if rc.SLO != nil {
		if r.smon == nil {
			var err error
			r.smon, err = blame.NewSLOMonitor(*rc.SLO)
			if err != nil {
				return err
			}
		}
		g.AddSink(r.smon)
	}
	if rc.Obsrv != nil {
		g.AddSink(rc.Obsrv.Hub())
		if r.reg != nil {
			rc.Obsrv.SetRegistry(r.reg)
		}
	}
	for _, s := range r.sinks {
		g.AddSink(s)
	}
	return nil
}

// step is the engine step hook, installed with a live server or pacing:
// honor a pending stop first (so a stuck reader or a long pace sleep
// cannot delay shutdown past one event), then pace, then maybe publish
// the live gate's /state and the /blame snapshots. Halt is the hook's
// one sanctioned engine mutation.
func (r *Rep) step(now sim.Time) {
	srv := r.rc.Obsrv
	if srv != nil && srv.StopRequested() {
		r.m.Engine().Halt()
		return
	}
	r.pacer.Pace(now)
	if srv == nil || r.gate == nil {
		return
	}
	var rpt func() *blame.Report
	if r.bcol != nil {
		rpt = r.bcol.Report
	}
	srv.MaybePublish(r.gate.ExportState, rpt)
}

// validatePersist rejects checkpoint/restore configurations the journal
// cannot honor.
func validatePersist(rc RunConfig) error {
	if rc.Checkpoint == nil && rc.Restore == nil {
		return nil
	}
	if rc.Policy == nil {
		return fmt.Errorf("perf: checkpoint/restore requires an admission policy (the baseline has no gate state)")
	}
	if rc.Checkpoint != nil && rc.Restore != nil {
		return fmt.Errorf("perf: checkpointing and restoring in the same run is not supported")
	}
	if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		return fmt.Errorf("perf: checkpoint/restore is incompatible with domain faults (recovery state is not journaled)")
	}
	if rc.Restore != nil {
		if rc.Reps() > 1 {
			return fmt.Errorf("perf: restore requires Repetitions <= 1 (a checkpoint belongs to one repetition)")
		}
		if rc.Restore.KillAt <= 0 {
			return fmt.Errorf("perf: restored checkpoint has no kill time (was the run actually killed?)")
		}
	}
	return nil
}

// stateTracker is the replay sink a revival run attaches to the gate
// that re-executes the pre-kill prefix: every record the prefix emits is
// folded into the restored state with the same State.Apply the journal
// replay used. For a journal that survived intact this is a no-op —
// records are idempotent post-state patches and the on-disk journal
// already contained every one of them. For a journal torn mid-frame it
// regenerates the lost suffix: the records past the truncation point are
// an exact function of the deterministic re-execution, so the tracked
// state converges on the gate at the kill no matter where the tear
// landed.
type stateTracker struct {
	st  core.State
	err error
}

// newStateTracker deep-copies the restored state (through its canonical
// encoding) so folding prefix records never mutates the caller's
// Restored value.
func newStateTracker(st core.State) (*stateTracker, error) {
	b, err := st.Canonical()
	if err != nil {
		return nil, err
	}
	tr := &stateTracker{}
	if err := json.Unmarshal(b, &tr.st); err != nil {
		return nil, err
	}
	return tr, nil
}

// Replay implements core.ReplaySink. Apply errors are sticky and
// surface when the revival protocol runs.
func (t *stateTracker) Replay(r core.ReplayRecord) {
	if t.err != nil {
		return
	}
	if err := t.st.Apply(r); err != nil {
		t.err = err
	}
}

// checkpointDir is repetition rep's directory under base: rep 0 owns
// base itself (the common single-repetition case restores from the
// directory the user named), later repetitions get subdirectories.
func checkpointDir(base string, rep uint64) string {
	if rep == 0 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("rep%d", rep))
}

// Finish runs the repetition to completion and returns its metrics and
// the machine's result. A run that restores a checkpoint is revived when
// its re-executed prefix halts at the recorded kill time. Any other halt
// ends the run: an injected kill returns an error matching
// machine.ErrHalted and a stop request one matching ErrStopped, after
// the checkpoint, if any, is closed.
func (r *Rep) Finish() (Metrics, *machine.Result, error) {
	res, err := r.m.Run()
	// An external stop request (SIGTERM) is checked before the revival:
	// a stop during prefix re-execution must not be mistaken for
	// reaching the checkpointed kill time.
	stopped := func() bool { return r.rc.Obsrv != nil && r.rc.Obsrv.StopRequested() }
	if errors.Is(err, machine.ErrHalted) && r.rc.Restore != nil && !stopped() {
		res, err = r.revive()
	}
	if errors.Is(err, machine.ErrHalted) {
		// The run ends here, by request or by the injected process
		// death; either way leave any checkpoint consistent, since it is
		// everything the run leaves behind.
		if r.cp != nil {
			if cerr := r.cp.Close(); cerr != nil {
				return Metrics{}, nil, cerr
			}
		}
		if stopped() {
			return Metrics{}, nil, fmt.Errorf("perf: run stopped at %v: %w", r.m.Now(), ErrStopped)
		}
		return Metrics{}, nil, fmt.Errorf("perf: process killed at %v: %w", r.m.Now(), err)
	}
	if err != nil {
		return Metrics{}, nil, err
	}
	met, err := r.collect(res)
	if err != nil {
		return Metrics{}, nil, err
	}
	return met, res, nil
}

// collect closes the observation of a completed run and assembles its
// metrics.
func (r *Rep) collect(res *machine.Result) (Metrics, error) {
	g, reg, now := r.gate, r.reg, r.m.Now()
	met := Metrics{
		Telemetry: reg,

		SystemJ:       res.SystemJ,
		DRAMJ:         res.DRAMJ,
		PackageJ:      res.PackageJ,
		GFLOPS:        res.GFLOPS(),
		GFLOPSPerWatt: res.GFLOPSPerWatt(),
		ElapsedSec:    res.Elapsed.Seconds(),
		DRAMAccesses:  res.Counters.DRAMAccesses,
		AvgBusyCores:  res.AvgBusyCores,
		Blocks:        res.Counters.PPBlocks,
		Wakeups:       res.Counters.Wakeups,
	}
	if g != nil {
		// End-of-run reclamation: periods still registered lost their
		// owners (leaked ends, crashed threads); return their load so the
		// monitor reads zero and the counters include the residue.
		g.Quiesce()
		rob, gov := g.Stats(), g.GovernorStats()
		dst, rst := g.DomainStats(), g.RecoveryStats()
		met.ReclaimedLeases = float64(rob.Reclaimed)
		met.FallbackAdmissions = float64(rob.Fallbacks)
		met.RejectedDemands = float64(rob.Rejected)
		met.MaxWaitSec = rob.MaxWait.Seconds()
		met.GovernorDegradations = float64(gov.Degradations)
		met.GovernorRecoveries = float64(gov.Recoveries)
		met.GovernorQuarantines = float64(gov.Quarantines)
		met.GovernorRestores = float64(gov.Restores)
		met.GovernorReservations = float64(gov.Reservations)
		met.DomainPlacements = float64(dst.Placements)
		met.DomainSteals = float64(dst.Steals)
		met.DomainFailures = float64(rst.Failures)
		met.Evacuations = float64(rst.Evacuations)
		met.EvacRetries = float64(rst.EvacRetries)
		met.AuditRepairs = float64(rst.AuditRepairs)
		met.DomainRecoveries = float64(rst.Reintegrations)
		met.DroppedPeriods = float64(rst.Dropped)
		if reg != nil {
			g.PublishStats(reg)
		}
	}
	if r.col != nil {
		// Quiesce already closed admitted spans via reclaim events; this
		// closes the still-waitlisted ones.
		r.col.Finish(now)
		met.Spans = r.col.Spans()
	}
	if r.bcol != nil {
		// Finish after Quiesce: the reclaim/wake cascade it triggers is
		// part of the run, and still-open waits close at quiesce time.
		r.bcol.Finish(now)
		met.Blame = r.bcol.Report()
		met.Blame.Publish(reg)
	}
	if r.smon != nil {
		met.SLO = r.smon.Result()
		met.SLO.Publish(reg)
	}
	if r.cp != nil {
		// Surface any sticky journal I/O error: a run whose checkpoint
		// silently failed must not report success.
		if err := r.cp.Close(); err != nil {
			return Metrics{}, err
		}
		if reg != nil {
			r.cp.Publish(reg)
		}
	}
	if r.rc.Restore != nil && reg != nil {
		r.rc.Restore.Publish(reg)
	}
	if srv := r.rc.Obsrv; srv != nil {
		// Publish the end-of-run snapshots unconditionally so /state and
		// /blame reflect the final (post-Quiesce) picture even for runs
		// shorter than the publication period.
		if g != nil {
			_ = srv.PublishState(g.ExportState())
		}
		_ = srv.PublishBlame(met.Blame)
	}
	return met, nil
}

// revive is the revival protocol, entered when the re-executed pre-kill
// prefix halts at the checkpointed kill time:
//
//  1. Verify: the live gate's exported state must match the tracked
//     restored state — the checkpoint plus every record the prefix
//     re-emitted (a no-op for an intact journal, the regenerated suffix
//     for a torn one) — byte-for-byte under canonical JSON. (The
//     tracked state's clock reads the last record, which can trail the
//     kill by a stretch with no admission activity, so the timestamps
//     are aligned before comparing.) A mismatch means the journal and
//     the deterministic re-execution disagree — corruption beyond what
//     the checksums caught, or nondeterminism; either way, refuse.
//  2. Detach the prefix gate: cancel its timers, drop its sinks; any
//     already-queued event against it becomes a no-op.
//  3. Build a fresh gate from the run configuration, bind it in the
//     prefix gate's place (the same observers, so the step hook and the
//     end-of-run collection follow it), import the restored state into
//     it (re-linking waiter threads through the machine, re-arming every
//     lease/deadline/tick at its original expiry), and swap it under
//     the machine.
//  4. Clear the halt and drive the run to completion.
//
// The imported state — not the re-executed prefix gate — owns the rest
// of the run, so the persistence layer is load-bearing: any field the
// snapshot or journal misrepresents changes the resumed schedule, and
// the E9 golden (byte-identical final tables vs. the unkilled run)
// catches it.
func (r *Rep) revive() (*machine.Result, error) {
	if r.tr.err != nil {
		return nil, fmt.Errorf("perf: folding re-executed prefix into restored state: %w", r.tr.err)
	}
	live := r.gate.ExportState()
	want := r.tr.st
	want.At = live.At
	lb, err := live.Canonical()
	if err != nil {
		return nil, err
	}
	// An old unsharded checkpoint has no set state: compare it as the
	// empty one a single-domain set exports (ImportState rejects N >= 2).
	cmp := want
	if cmp.Set == nil {
		cmp.Set = &core.SetState{}
	}
	wb, err := cmp.Canonical()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(lb, wb) {
		return nil, fmt.Errorf("perf: restored state diverges from re-executed run at %v (%d vs %d canonical bytes)",
			r.m.Now(), len(wb), len(lb))
	}
	r.gate.Detach()
	g, err := newGate(r.rc, r.m.Config())
	if err != nil {
		return nil, err
	}
	if err := r.bind(g); err != nil {
		return nil, err
	}
	if err := g.ImportState(want, r.m.ThreadByID); err != nil {
		return nil, err
	}
	r.m.SetGate(g)
	r.m.Engine().Resume()
	return r.m.Resume()
}

// armDomainFaults schedules a plan's domain-level faults on the run's
// event engine, in plan order. Each fault validates its target index up
// front so a misconfigured sweep fails at arm time, not mid-run; faults
// with a positive Heal arm the matching RecoverDomain alongside.
func armDomainFaults(dset *core.DomainSet, eng *sim.Engine, dfs []faults.DomainFault) error {
	for i, df := range dfs {
		if df.Domain < 0 || df.Domain >= dset.NumDomains() {
			return fmt.Errorf("perf: domain fault %d targets domain %d of %d", i, df.Domain, dset.NumDomains())
		}
		if df.At <= 0 {
			return fmt.Errorf("perf: domain fault %d at non-positive time %v", i, df.At)
		}
		df := df
		eng.After(df.At, func() {
			var err error
			switch df.Kind {
			case faults.DomainCapacityLoss:
				err = dset.InjectCapacityLoss(df.Domain, df.Frac)
			case faults.DomainCrash:
				err = dset.InjectCrash(df.Domain)
			case faults.DomainLedgerSkew:
				err = dset.InjectLedgerCorruption(df.Domain, df.Skew)
			}
			if err != nil {
				panic(fmt.Sprintf("perf: domain fault injection: %v", err))
			}
		})
		if df.Heal > 0 && df.Kind != faults.DomainLedgerSkew {
			eng.After(df.At+df.Heal, func() {
				if err := dset.RecoverDomain(df.Domain); err != nil {
					panic(fmt.Sprintf("perf: domain recovery: %v", err))
				}
			})
		}
	}
	return nil
}

// Undeclare strips every Declared flag: the workload as it runs on the
// stock scheduler, without progress-period instrumentation.
func Undeclare(w proc.Workload) proc.Workload {
	out := proc.Workload{Name: w.Name, Procs: make([]proc.Spec, len(w.Procs))}
	for i, s := range w.Procs {
		cs := s
		cs.Program = make(proc.Program, len(s.Program))
		copy(cs.Program, s.Program)
		for j := range cs.Program {
			cs.Program[j].Declared = false
		}
		out.Procs[i] = cs
	}
	return out
}

// jitter returns a copy of w with each phase's instruction count
// perturbed by a uniform factor in [1-frac, 1+frac].
func jitter(w proc.Workload, frac float64, rng *sim.RNG) proc.Workload {
	out := proc.Workload{Name: w.Name, Procs: make([]proc.Spec, len(w.Procs))}
	for i, s := range w.Procs {
		cs := s
		cs.Program = make(proc.Program, len(s.Program))
		copy(cs.Program, s.Program)
		for j := range cs.Program {
			f := 1 + frac*(2*rng.Float64()-1)
			cs.Program[j].Instr *= f
		}
		out.Procs[i] = cs
	}
	return out
}

// Aggregate computes the element-wise mean and standard deviation of a
// set of repetition samples, in sample order (the order never affects
// the result beyond float rounding, but callers collecting samples from
// a worker pool must still pass them in repetition order so the
// rounding, too, is deterministic).
func Aggregate(samples []Metrics) (mean, stddev Metrics, err error) {
	n := float64(len(samples))
	if n == 0 {
		return Metrics{}, Metrics{}, fmt.Errorf("perf: no samples")
	}
	fields := func(m *Metrics) []*float64 {
		return []*float64{
			&m.SystemJ, &m.DRAMJ, &m.PackageJ, &m.GFLOPS, &m.GFLOPSPerWatt,
			&m.ElapsedSec, &m.DRAMAccesses, &m.AvgBusyCores,
			&m.ReclaimedLeases, &m.FallbackAdmissions, &m.RejectedDemands, &m.MaxWaitSec,
			&m.GovernorDegradations, &m.GovernorRecoveries, &m.GovernorQuarantines,
			&m.GovernorRestores, &m.GovernorReservations,
			&m.DomainPlacements, &m.DomainSteals,
			&m.DomainFailures, &m.Evacuations, &m.EvacRetries,
			&m.AuditRepairs, &m.DomainRecoveries, &m.DroppedPeriods,
		}
	}
	spans := 0
	for _, s := range samples {
		spans += len(s.Spans)
	}
	if spans > 0 {
		mean.Spans = make([]trace.Span, 0, spans)
	}
	for rep, s := range samples {
		s := s
		for i, f := range fields(&s) {
			*fields(&mean)[i] += *f / n
		}
		mean.Blocks += s.Blocks / uint64(len(samples))
		mean.Wakeups += s.Wakeups / uint64(len(samples))
		// Telemetry folds, it does not average: registries merge in
		// repetition order, spans concatenate stamped with their
		// repetition index.
		if s.Telemetry != nil {
			if mean.Telemetry == nil {
				mean.Telemetry = telemetry.NewRegistry()
			}
			mean.Telemetry.Merge(s.Telemetry)
		}
		for _, sp := range s.Spans {
			sp.Rep = rep
			mean.Spans = append(mean.Spans, sp)
		}
		if s.Blame != nil {
			for i := range s.Blame.Periods {
				s.Blame.Periods[i].Rep = rep
			}
			if mean.Blame == nil {
				mean.Blame = &blame.Report{}
			}
			mean.Blame.Merge(s.Blame)
		}
		if s.SLO != nil {
			for i := range s.SLO.Samples {
				s.SLO.Samples[i].Rep = rep
			}
			if mean.SLO == nil {
				mean.SLO = &blame.SLOResult{}
			}
			mean.SLO.Merge(s.SLO)
		}
	}
	for _, s := range samples {
		s := s
		mf := fields(&mean)
		for i, f := range fields(&s) {
			d := *f - *mf[i]
			*fields(&stddev)[i] += d * d / n
		}
	}
	for _, f := range fields(&stddev) {
		*f = math.Sqrt(*f)
	}
	return mean, stddev, nil
}
