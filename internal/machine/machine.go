package machine

import (
	"errors"
	"fmt"
	"math"

	"rdasched/internal/energy"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// ErrHalted is returned by Run/Resume when the simulation was stopped by
// sim.Engine.Halt before every process completed (the crash-restart
// machinery's process-death fault). The machine's state is intact: the
// run can continue via Resume, typically after a restored gate has been
// swapped in with SetGate.
var ErrHalted = errors.New("machine: halted")

// State is a thread's scheduling state.
type State int

const (
	// Ready threads are runnable and share the cores.
	Ready State = iota
	// Blocked threads were paused by the Gate at a period boundary.
	Blocked
	// Waking threads have been released but are still inside the wake
	// latency window.
	Waking
	// BarrierWait threads finished a BarrierAfter phase and wait for
	// their siblings.
	BarrierWait
	// Done threads finished their program.
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Waking:
		return "waking"
	case BarrierWait:
		return "barrier"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Thread is the runtime state of one simulated thread.
type Thread struct {
	id        int
	proc      *Process
	idxInProc int
	phase     int
	remaining float64 // instructions left in current phase (incl. overhead)
	penalty   float64 // stall instruction-equivalents (wake refill); drains
	// before remaining and yields no flops or memory traffic — the
	// traffic was already counted when the penalty was charged.
	state State
	// weight is the owning spec's EffectiveWeight, cached for
	// water-filling.
	weight float64
	// crashing marks a thread whose current phase was truncated by
	// CrashFrac: when the truncated run completes, the thread dies instead
	// of retiring the phase.
	crashing bool

	// Cached per-interval model outputs (valid between reschedules).
	rate          float64 // instructions/second
	share         float64 // core share in [0,1] (weighted fair)
	llcPerInstr   float64
	dramPerInstr  float64
	flopsPerInstr float64

	instructions float64
	flops        float64
}

// ID returns the machine-wide thread id.
func (t *Thread) ID() int { return t.id }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// PhaseIndex returns the index of the thread's current phase.
func (t *Thread) PhaseIndex() int { return t.phase }

// State returns the scheduling state.
func (t *Thread) State() State { return t.state }

// CurrentPhase returns the phase the thread is in, or nil when done.
func (t *Thread) CurrentPhase() *proc.Phase {
	if t.phase >= len(t.proc.spec.Program) {
		return nil
	}
	return &t.proc.spec.Program[t.phase]
}

// Process is the runtime state of one simulated process.
type Process struct {
	id       int
	spec     proc.Spec
	threads  []*Thread
	barriers map[int]int // phase index → arrivals
	// stamp holds, per phase, the machine epoch of the last contention
	// pass that counted this (process, phase) group.
	stamp   []uint64
	done    int
	crashed int // threads that died mid-phase (fault injection)
	finish  sim.Time
}

// ID returns the machine-wide process id.
func (p *Process) ID() int { return p.id }

// Name returns the spec name.
func (p *Process) Name() string { return p.spec.Name }

// Spec returns the process description.
func (p *Process) Spec() proc.Spec { return p.spec }

// NumThreads returns the thread count.
func (p *Process) NumThreads() int { return len(p.threads) }

// Finished reports whether all threads completed, and when.
func (p *Process) Finished() (sim.Time, bool) {
	return p.finish, p.done == len(p.threads)
}

// Gate is the hook through which a scheduling extension intercepts
// declared phases (progress periods). EnterPhase returning false pauses
// the thread; the gate must later call Machine.Unblock to resume it.
// Undeclared phases never reach the gate — the paper's extension "ignores
// processes that have not provided progress period information".
type Gate interface {
	EnterPhase(t *Thread, phaseIdx int, ph *proc.Phase) bool
	ExitPhase(t *Thread, phaseIdx int, ph *proc.Phase)
}

// Counters aggregates machine-wide activity.
type Counters struct {
	Instructions float64
	Flops        float64
	LLCAccesses  float64
	DRAMAccesses float64
	PPBlocks     uint64 // gate denials
	Wakeups      uint64 // gate releases
	Barriers     uint64 // barrier rendezvous completed
	Crashes      uint64 // threads that died mid-phase (fault injection)
	LeakedEnds   uint64 // declared phases retired without a pp_end (fault injection)
}

// Sample is one point of the run's utilization timeline.
type Sample struct {
	At        sim.Time
	BusyCores float64
	// PressureBytes is the LLC pressure of the active set at the sample.
	PressureBytes float64
}

// Result summarizes one run.
type Result struct {
	Elapsed      sim.Duration
	Counters     Counters
	PackageJ     float64
	DRAMJ        float64
	SystemJ      float64
	AvgBusyCores float64
	Procs        []ProcResult
	// Timeline holds utilization samples taken at scheduling points, at
	// most one per TimelineInterval (empty when sampling is disabled).
	Timeline []Sample
}

// ProcResult is one process's completion record.
type ProcResult struct {
	Name         string
	Finish       sim.Duration
	Instructions float64
	Flops        float64
}

// GFLOPS returns billions of floating-point operations per wall second.
func (r *Result) GFLOPS() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return r.Counters.Flops / s / 1e9
}

// GFLOPSPerWatt returns total GFLOP divided by system Joules — the
// paper's Figure 10 metric (work per energy).
func (r *Result) GFLOPSPerWatt() float64 {
	if r.SystemJ == 0 {
		return 0
	}
	return r.Counters.Flops / 1e9 / r.SystemJ
}

// Machine simulates one run of a set of processes. A Machine is single
// use: construct, add processes, Run once.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	meter *energy.Meter
	gate  Gate

	procs   []*Process
	threads []*Thread
	// live holds the non-Done threads in increasing id order; reschedule
	// compacts it in place. Every per-event loop ranges over it, and
	// because it keeps id order every float sum runs in the same order
	// as a scan of all threads would.
	live []*Thread
	// unsat is computeShares' reused water-filling scratch.
	unsat []*Thread
	// epoch numbers contention passes for the per-phase group stamps.
	epoch uint64
	// onComplete is m.onCompletion, bound once so that rescheduling
	// does not allocate a method value per event.
	onComplete func()

	lastUpdate  sim.Time
	pending     *sim.Event
	busyCores   float64
	timeline    []Sample
	lastSample  sim.Time
	sampleEvery sim.Duration
	inEvent     bool
	ran         bool
	doneProcs   int
	counters    Counters
	llcCarry    float64
	dramCarry   float64
	err         error
}

// New builds a machine; it panics on an invalid config (programming
// error) and accepts a nil gate (default scheduling only).
func New(cfg Config, gate Gate) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:   cfg,
		eng:   sim.NewEngine(cfg.Seed),
		meter: energy.NewMeter(cfg.Energy),
		gate:  gate,
	}
	m.onComplete = m.onCompletion
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Engine exposes the event engine (used by gates that need timers).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// EnableTimeline records a utilization sample at scheduling points, at
// most one per interval. Call before Run.
func (m *Machine) EnableTimeline(interval sim.Duration) {
	if interval <= 0 {
		interval = 10 * sim.Millisecond
	}
	m.sampleEvery = interval
}

// AddProcess instantiates spec. It returns an error after Run has started
// or for invalid specs.
func (m *Machine) AddProcess(spec proc.Spec) (*Process, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: AddProcess after Run")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Process{
		id: len(m.procs), spec: spec, barriers: make(map[int]int),
		stamp:   make([]uint64, len(spec.Program)),
		threads: make([]*Thread, spec.Threads),
	}
	slab := make([]Thread, spec.Threads)
	w := spec.EffectiveWeight()
	for i := range slab {
		t := &slab[i]
		*t = Thread{id: len(m.threads), proc: p, idxInProc: i, weight: w}
		p.threads[i] = t
		m.threads = append(m.threads, t)
		m.live = append(m.live, t)
	}
	m.procs = append(m.procs, p)
	return p, nil
}

// AddWorkload instantiates every spec in w.
func (m *Machine) AddWorkload(w proc.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	for _, s := range w.Procs {
		if _, err := m.AddProcess(s); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the result. When
// the engine is halted mid-run (crash-restart fault injection) it returns
// ErrHalted; the machine stays live and Resume continues the run.
func (m *Machine) Run() (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: Run called twice")
	}
	m.ran = true
	if len(m.procs) == 0 {
		return nil, fmt.Errorf("machine: no processes")
	}
	// Launch every thread through phase 0 (gate admission in thread order,
	// like processes starting one after another at t=0).
	for _, t := range m.threads {
		m.startPhase(t, 0)
	}
	m.reschedule()
	return m.drive()
}

// Resume continues a run that Run (or a previous Resume) left with
// ErrHalted. The caller must first clear the engine halt (sim.Engine
// Resume); typically a restored gate has been installed with SetGate so
// the remainder of the schedule is driven by the revived scheduler.
func (m *Machine) Resume() (*Result, error) {
	if !m.ran {
		return nil, fmt.Errorf("machine: Resume before Run")
	}
	if m.err != nil {
		return nil, fmt.Errorf("machine: Resume after failed run: %w", m.err)
	}
	if m.eng.Halted() {
		return nil, fmt.Errorf("machine: Resume with the engine still halted")
	}
	return m.drive()
}

// drive steps the engine until every process completes, a stall or
// MaxSimTime error occurs, or the engine is halted. A halt is NOT stored
// in m.err — it is a resumable condition, not a failed run.
func (m *Machine) drive() (*Result, error) {
	deadline := sim.Time(0).Add(m.cfg.MaxSimTime)
	for m.doneProcs < len(m.procs) && m.err == nil {
		if !m.eng.Step() {
			if m.eng.Halted() {
				return nil, ErrHalted
			}
			m.err = m.stallError()
			break
		}
		if m.eng.Now() > deadline {
			m.err = fmt.Errorf("machine: exceeded MaxSimTime %v (livelock?)", m.cfg.MaxSimTime)
			break
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	res := &Result{
		Elapsed:      m.eng.Now().DurationSince(0),
		Counters:     m.counters,
		PackageJ:     m.meter.PackageJoules(),
		DRAMJ:        m.meter.DRAMJoules(),
		SystemJ:      m.meter.SystemJoules(),
		AvgBusyCores: m.meter.AvgBusyCores(),
		Timeline:     m.timeline,
	}
	for _, p := range m.procs {
		pr := ProcResult{Name: p.spec.Name, Finish: p.finish.DurationSince(0)}
		for _, t := range p.threads {
			pr.Instructions += t.instructions
			pr.Flops += t.flops
		}
		res.Procs = append(res.Procs, pr)
	}
	return res, nil
}

// SetGate replaces the admission gate mid-run. It exists for the restore
// path: after a halt, a scheduler rebuilt from a checkpoint takes over
// from the one that "died". The caller is responsible for the old gate's
// pending timers — a detached gate must never touch the machine again.
func (m *Machine) SetGate(g Gate) { m.gate = g }

// ThreadByID returns the thread with the given machine-wide id, or nil
// when no such thread exists. IDs are dense slice indexes assigned in
// AddProcess order, so restored checkpoints can re-link waiter lists.
func (m *Machine) ThreadByID(id int) *Thread {
	if id < 0 || id >= len(m.threads) {
		return nil
	}
	return m.threads[id]
}

func (m *Machine) stallError() error {
	blocked, waiting := 0, 0
	for _, t := range m.threads {
		switch t.state {
		case Blocked:
			blocked++
		case BarrierWait:
			waiting++
		}
	}
	return fmt.Errorf("machine: stalled at %v with %d/%d processes done (%d blocked, %d at barriers): "+
		"a progress period was never released — check the gate's policy for starvation",
		m.eng.Now(), m.doneProcs, len(m.procs), blocked, waiting)
}

// Unblock releases a thread the gate paused. It may be called
// synchronously from within ExitPhase or later from a timer.
func (m *Machine) Unblock(t *Thread) {
	if t.state != Blocked {
		panic(fmt.Sprintf("machine: Unblock of %s thread %d", t.state, t.id))
	}
	m.counters.Wakeups++
	if m.cfg.WakeLatency <= 0 {
		m.wake(t)
		return
	}
	t.state = Waking
	m.eng.After(m.cfg.WakeLatency, func() { m.wake(t) })
}

// wake makes t Ready after charging its cache refill. Inside an event
// (a gate releasing t from ExitPhase) the event's own advance and
// reschedule frame the change; outside one (timer callbacks) wake
// advances and reschedules itself.
func (m *Machine) wake(t *Thread) {
	if !m.inEvent {
		m.advance()
	}
	m.chargeWakeRefill(t)
	t.state = Ready
	if !m.inEvent {
		m.reschedule()
	}
}

// chargeWakeRefill bills the cold-cache restart of a resumed thread: the
// working set it is about to use was evicted while it waited, so
// WSS/LineSize lines stream back in from DRAM. The stall is charged as
// instruction-equivalents at base CPI (an approximation — refill overlaps
// poorly with execution, which is why only the exposed latency fraction
// is charged), and the line fetches are counted as LLC + DRAM traffic.
func (m *Machine) chargeWakeRefill(t *Thread) {
	if m.cfg.WakeRefillFactor <= 0 {
		return
	}
	ph := t.CurrentPhase()
	if ph == nil {
		return
	}
	lines := m.cfg.WakeRefillFactor * float64(ph.OccupancyBytes()) / float64(m.cfg.LineSize)
	exposed := m.cfg.DRAMCycles * (1 - m.cfg.MLPOverlap)
	t.penalty += lines * exposed / m.cfg.BaseCPI
	m.accumulate(lines, lines)
}

// advance integrates thread progress, counters, and energy from the last
// update point to now, using the rates cached by the last reschedule.
func (m *Machine) advance() {
	now := m.eng.Now()
	dt := now.DurationSince(m.lastUpdate)
	if dt <= 0 {
		m.lastUpdate = now
		return
	}
	secs := dt.Seconds()
	var llc, dram float64
	for _, t := range m.live {
		if t.state != Ready {
			continue
		}
		done := t.rate * secs
		if done > t.remaining+t.penalty+1 {
			done = t.remaining + t.penalty + 1 // clamp numerical overshoot
		}
		if t.penalty > 0 {
			p := done
			if p > t.penalty {
				p = t.penalty
			}
			t.penalty -= p
			done -= p
		}
		t.remaining -= done
		t.instructions += done
		t.flops += done * t.flopsPerInstr
		m.counters.Instructions += done
		m.counters.Flops += done * t.flopsPerInstr
		llc += done * t.llcPerInstr
		dram += done * t.dramPerInstr
	}
	m.accumulate(llc, dram)
	m.meter.AdvanceTime(dt, m.busyCores)
	m.lastUpdate = now
}

// accumulate moves float access counts into the meter with carry so that
// rounding never loses events.
func (m *Machine) accumulate(llc, dram float64) {
	m.counters.LLCAccesses += llc
	m.counters.DRAMAccesses += dram
	m.llcCarry += llc
	m.dramCarry += dram
	if n := uint64(m.llcCarry); n > 0 {
		m.meter.CountLLC(n)
		m.llcCarry -= float64(n)
	}
	if n := uint64(m.dramCarry); n > 0 {
		m.meter.CountDRAM(n)
		m.dramCarry -= float64(n)
	}
}

// completionEpsilon is the slack (in instructions) below which a phase
// counts as finished; it absorbs picosecond event rounding.
const completionEpsilon = 0.05

// computeShares assigns each ready thread its weighted fair core share
// (CFS semantics in the fluid limit) by water-filling: no thread may use
// more than one core, and leftover capacity from capped threads is
// redistributed to the rest in proportion to their weights. It returns
// the total busy-core count (Σ shares). With uniform weights this
// reduces to share = min(1, cores/ready).
func (m *Machine) computeShares() float64 {
	unsat := m.unsat[:0]
	var sumW float64
	for _, t := range m.live {
		if t.state == Ready {
			t.share = 0
			unsat = append(unsat, t)
			sumW += t.weight
		}
	}
	m.unsat = unsat
	capacity := float64(m.cfg.Cores)
	used := 0 // threads capped at one full core so far
	for len(unsat) > 0 && capacity > 1e-12 {
		// Cap every thread whose fair share reaches a full core; the
		// survivors' weight sum accumulates in the same order a fresh
		// pass over them would use.
		next := unsat[:0]
		var nextW float64
		for _, t := range unsat {
			if capacity*t.weight/sumW >= 1 {
				t.share = 1
				used++
			} else {
				next = append(next, t)
				nextW += t.weight
			}
		}
		if len(next) < len(unsat) {
			// Redistribute the remaining capacity and iterate.
			capacity = float64(m.cfg.Cores) - float64(used)
			unsat, sumW = next, nextW
			continue
		}
		for _, t := range unsat {
			t.share = capacity * t.weight / sumW
		}
		break
	}
	total := 0.0
	for _, t := range m.live {
		if t.state == Ready {
			total += t.share
		}
	}
	// Clamp float accumulation noise: Σ shares can exceed the core count
	// by an ulp after water-filling.
	if max := float64(m.cfg.Cores); total > max {
		total = max
	}
	return total
}

// reschedule recomputes contention, rates, and the next completion event.
func (m *Machine) reschedule() {
	if m.pending != nil {
		m.eng.Cancel(m.pending)
		m.pending = nil
	}
	// Drop the threads that finished since the last reschedule. Compacting
	// in place keeps id order.
	ready := 0
	live := m.live[:0]
	for _, t := range m.live {
		switch t.state {
		case Done:
			continue
		case Ready:
			ready++
		}
		live = append(live, t)
	}
	m.live = live
	if ready == 0 {
		return // threads are blocked/waking/done; timers or the gate move things along
	}

	ctn := m.contention()
	m.busyCores = m.computeShares()
	if m.sampleEvery > 0 && (len(m.timeline) == 0 || m.eng.Now() >= m.lastSample.Add(m.sampleEvery)) {
		m.timeline = append(m.timeline, Sample{
			At: m.eng.Now(), BusyCores: m.busyCores,
			PressureBytes: float64(ctn.PressureBytes),
		})
		m.lastSample = m.eng.Now()
	}

	// Unconstrained rates, then a shared-bandwidth roofline. The
	// shared-pool hit scaling residency^γ is the same for every thread.
	resid := math.Pow(ctn.Residency, m.cfg.ResidencyExponent)
	var traffic float64 // bytes/sec of DRAM transfers
	for _, t := range m.live {
		if t.state != Ready {
			continue
		}
		ph := t.CurrentPhase()
		perf := m.phasePerf(ph, resid)
		t.llcPerInstr = perf.llcPerInstr
		t.dramPerInstr = perf.dramPerInstr
		t.flopsPerInstr = ph.FlopsPerInstr
		t.rate = t.share * m.cfg.FreqHz / perf.cpi
		traffic += t.rate * t.dramPerInstr * float64(m.cfg.LineSize)
	}
	scale := 1.0
	if traffic > m.cfg.MemBandwidth {
		scale = m.cfg.MemBandwidth / traffic
	}

	// Apply the roofline and find the next completion.
	next := math.Inf(1)
	for _, t := range m.live {
		if t.state != Ready {
			continue
		}
		t.rate *= scale
		dt := (t.remaining + t.penalty) / t.rate
		if dt < next {
			next = dt
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	d := sim.Duration(math.Ceil(next * 1e12))
	if d < 1 {
		d = 1
	}
	m.pending = m.eng.After(d, m.onComplete)
}

// onCompletion advances time and retires every phase that has finished.
func (m *Machine) onCompletion() {
	m.pending = nil
	m.advance()
	m.inEvent = true
	for _, t := range m.live {
		if t.state == Ready && t.remaining+t.penalty <= completionEpsilon {
			m.finishPhase(t)
		}
	}
	m.inEvent = false
	m.reschedule()
}

// finishPhase retires t's current phase: gate exit, barrier rendezvous,
// next phase entry. A crashing thread dies instead: no pp_end reaches the
// gate, no barrier is joined, and the rest of its program never runs.
func (m *Machine) finishPhase(t *Thread) {
	ph := t.CurrentPhase()
	idx := t.phase
	if t.crashing {
		m.crashThread(t)
		return
	}
	if ph.Declared && m.gate != nil {
		if ph.LeakEnd {
			m.counters.LeakedEnds++
		} else {
			m.gate.ExitPhase(t, idx, ph)
		}
	}
	if ph.BarrierAfter && t.proc.spec.Threads > 1 {
		p := t.proc
		p.barriers[idx]++
		if p.barriers[idx] < len(p.threads)-p.crashed {
			t.state = BarrierWait
			return
		}
		m.completeBarrier(p, idx, t)
	}
	t.phase++
	m.startPhase(t, t.phase)
}

// completeBarrier releases every sibling waiting at barrier idx. The
// arriving thread (nil when a crash shrank the rendezvous target) advances
// itself in finishPhase.
func (m *Machine) completeBarrier(p *Process, idx int, arriving *Thread) {
	delete(p.barriers, idx)
	m.counters.Barriers++
	for _, sib := range p.threads {
		if sib != arriving && sib.state == BarrierWait && sib.phase == idx {
			sib.phase++
			m.startPhase(sib, sib.phase)
		}
	}
}

// crashThread kills t mid-period: the thread counts as finished for
// process completion, its open progress period never sees a pp_end (the
// scheduler's lease watchdog reclaims the load), and every pending
// barrier of its process re-evaluates against the shrunken rendezvous
// target so surviving siblings are not deadlocked by a dead peer.
func (m *Machine) crashThread(t *Thread) {
	t.state = Done
	t.crashing = false
	m.counters.Crashes++
	p := t.proc
	p.crashed++
	p.done++
	if p.done == len(p.threads) {
		p.finish = m.eng.Now()
		m.doneProcs++
	}
	for idx := 0; idx < len(p.spec.Program); idx++ {
		if n, ok := p.barriers[idx]; ok && n > 0 && n >= len(p.threads)-p.crashed {
			m.completeBarrier(p, idx, nil)
		}
	}
}

// startPhase moves t into phase i, charging boundary overhead and asking
// the gate for admission when the phase is declared.
func (m *Machine) startPhase(t *Thread, i int) {
	prog := t.proc.spec.Program
	if i >= len(prog) {
		t.state = Done
		p := t.proc
		p.done++
		if p.done == len(p.threads) {
			p.finish = m.eng.Now()
			m.doneProcs++
		}
		return
	}
	ph := &prog[i]
	t.remaining = ph.Instr
	if ph.CrashFrac > 0 {
		// Fault injection: the thread dies after this fraction of the
		// phase. Truncate the run; finishPhase turns completion into death.
		t.remaining = ph.Instr * ph.CrashFrac
		t.crashing = true
	}
	if ph.Declared {
		// The pp_begin/pp_end cost is stall, not useful work: charge it
		// as zero-yield penalty so it consumes time without fabricating
		// flops or memory traffic.
		t.penalty += m.cfg.boundaryOverhead(ph.Instr)
		if m.gate != nil && !m.gate.EnterPhase(t, i, ph) {
			t.state = Blocked
			m.counters.PPBlocks++
			return
		}
	}
	t.state = Ready
}
