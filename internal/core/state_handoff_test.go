package core

import (
	"errors"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// These tests pin the export→import contract at the core layer, without
// the persist/perf machinery on top: halt a governed run mid-schedule,
// move the gate's exported state into a freshly built one on the same
// machine, resume, and require the outcome byte-for-byte equal to a run
// that was never interrupted. The gate is a one-domain DomainSet — the
// shape every gated perf run checkpoints. The two scenarios are the ones
// with the most derived runtime state to lose: a breaker mid-probation
// (open window, pending probe) and a waitlist whose order rests on
// tickets preserved across re-denials (EnqueueAs).

// governedSet builds a one-domain set under Strict bound to m, governed
// by cfg and logging its decisions to the returned ring.
func governedSet(t *testing.T, m *machine.Machine, cfg GovernorConfig) (*DomainSet, *EventRing) {
	t.Helper()
	d := mustDomainSet(t, StrictPolicy{}, m.Config().LLCCapacity, DefaultDomainConfig(1))
	d.SetWaker(m)
	d.SetTimer(m.Engine())
	d.SetClock(m.Now)
	d.EnableGovernor(cfg)
	ring := NewEventRing(64)
	d.AddSink(ring)
	return d, ring
}

// handOff halts the machine at killAt, exports the live set's state,
// detaches it, and imports the state into a fresh set built by mk — the
// core-layer miniature of the perf revival protocol. It returns the
// replacement set and its ring after the resumed run completes.
func handOff(t *testing.T, m *machine.Machine, d *DomainSet, killAt sim.Duration, atKill func(*DomainSet), mk func() (*DomainSet, *EventRing)) (*DomainSet, *EventRing) {
	t.Helper()
	eng := m.Engine()
	eng.After(killAt, eng.Halt)
	if _, err := m.Run(); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("halted run returned %v, want machine.ErrHalted", err)
	}
	atKill(d) // prove the kill landed mid-scenario, not after it resolved
	st := d.ExportState()
	d.Detach()
	d2, ring := mk()
	if err := d2.ImportState(st, m.ThreadByID); err != nil {
		t.Fatalf("import: %v", err)
	}
	m.SetGate(d2)
	eng.Resume()
	if _, err := m.Resume(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return d2, ring
}

// wakeOrder extracts the EventWake process IDs from a decision log.
func wakeOrder(ring *EventRing) []int {
	var ids []int
	for _, e := range ring.Events() {
		if e.Kind == EventWake {
			ids = append(ids, e.Proc)
		}
	}
	return ids
}

// TestStateHandoffMidProbationBreaker interrupts the quarantine
// lifecycle while the breaker is open and the probation window is still
// running: the imported set must carry the open breaker, run the
// remaining probation phase quarantined, fire the half-open probe at the
// same phase, and end with the same cumulative governor ledger as the
// uninterrupted run.
func TestStateHandoffMidProbationBreaker(t *testing.T) {
	d := phaseDuration(t)
	lies := []bool{true, true, true, false, false, false}
	cfg := quietGovernor()
	cfg.Strikes = 2
	cfg.Probation = d + d/2
	setup := func(t *testing.T) (*DomainSet, *EventRing, *machine.Machine) {
		t.Helper()
		_, m := buildDomains(t, StrictPolicy{}, DefaultDomainConfig(1))
		s, ring := governedSet(t, m, cfg)
		m.SetGate(s)
		if _, err := m.AddProcess(multiPhaseProc("liar", lies)); err != nil {
			t.Fatal(err)
		}
		return s, ring, m
	}

	sb, rb, mb := setup(t)
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantGov, wantStats := sb.GovernorStats(), sb.Stats()
	// Calibrate the kill from the baseline's own log: half a probation
	// window past the trip is strictly inside it, whatever the phase
	// timing works out to.
	var tripAt sim.Duration = -1
	for _, e := range rb.Events() {
		if e.Kind == EventGovernorQuarantine {
			tripAt = e.At.DurationSince(0)
			break
		}
	}
	if tripAt < 0 {
		t.Fatal("baseline never tripped the breaker")
	}

	s, _, m := setup(t)
	s2, _ := handOff(t, m, s, tripAt+cfg.Probation/2, func(live *DomainSet) {
		if bs := live.Shard(0).BreakerState(0, m.Now()); bs != BreakerOpen {
			t.Fatalf("breaker %v at the kill, want open mid-probation", bs)
		}
		if gs := live.GovernorStats(); gs.Probes != 0 {
			t.Fatalf("probe already fired before the kill (%+v)", gs)
		}
	}, func() (*DomainSet, *EventRing) { return governedSet(t, m, cfg) })
	if gs := s2.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
	if st := s2.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if bs := s2.Shard(0).BreakerState(0, m.Now()); bs != BreakerClosed {
		t.Errorf("breaker %v after the probe, want closed", bs)
	}
}

// TestStateHandoffPreservesWaitTicketOrder interrupts the waitlist-aging
// scenario between its two reservation probes: the aged 10 MB waiter has
// already been probed, re-denied, and re-enqueued under its original
// ticket (EnqueueAs), with a reservation pinning the queue. The imported
// set must reproduce the uninterrupted run's wake order — the aged
// waiter strictly before the younger one that would otherwise fit — and
// its full wait clock.
func TestStateHandoffPreservesWaitTicketOrder(t *testing.T) {
	cfg := quietGovernor()
	cfg.AgeThreshold = 1e-9
	setup := func(t *testing.T) (*DomainSet, *EventRing, *machine.Machine) {
		t.Helper()
		_, m := buildDomains(t, StrictPolicy{}, DefaultDomainConfig(1))
		s, ring := governedSet(t, m, cfg)
		m.SetGate(s)
		for _, spec := range []struct {
			name  string
			wss   pp.Bytes
			instr float64
		}{
			{"hog", pp.MB(8), 1e8},
			{"big", pp.MB(10), 1e6},
			{"smallA", pp.MB(3), 4e7},
			{"smallB", pp.MB(3), 6e7},
			{"late", pp.MB(3), 1e6},
		} {
			if _, err := m.AddProcess(declaredProc(spec.name, spec.wss, spec.instr)); err != nil {
				t.Fatal(err)
			}
		}
		return s, ring, m
	}

	sb, rb, mb := setup(t)
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantWakes, wantStats, wantGov := wakeOrder(rb), sb.Stats(), sb.GovernorStats()
	if len(wantWakes) != 2 {
		t.Fatalf("baseline woke %v, want big then late", wantWakes)
	}
	// Calibrate the kill between the two reservation probes: smallA's end
	// has probed and re-denied big (back on the queue under its t=0
	// ticket, reservation held), smallB's end has not yet.
	var resAt []sim.Duration
	for _, e := range rb.Events() {
		if e.Kind == EventGovernorReserve {
			resAt = append(resAt, e.At.DurationSince(0))
		}
	}
	if len(resAt) != 2 {
		t.Fatalf("baseline took %d reservations, want 2", len(resAt))
	}

	s, ring, m := setup(t)
	s2, ring2 := handOff(t, m, s, (resAt[0]+resAt[1])/2, func(live *DomainSet) {
		if gs := live.GovernorStats(); gs.Reservations != 1 {
			t.Fatalf("reservations at the kill = %d, want exactly the first probe taken", gs.Reservations)
		}
		if n := live.Waitlisted(); n != 2 {
			t.Fatalf("%d waitlisted at the kill, want big (re-enqueued) and late", n)
		}
	}, func() (*DomainSet, *EventRing) { return governedSet(t, m, cfg) })
	// The decision log spans both sets: wakes before the handoff live in
	// the detached one, the rest in the import.
	gotWakes := append(wakeOrder(ring), wakeOrder(ring2)...)
	if len(gotWakes) != len(wantWakes) {
		t.Fatalf("handoff run woke %v, baseline woke %v", gotWakes, wantWakes)
	}
	for i := range wantWakes {
		if gotWakes[i] != wantWakes[i] {
			t.Fatalf("wake order after handoff %v, want %v", gotWakes, wantWakes)
		}
	}
	if st := s2.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if gs := s2.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
}

// TestImportNilSetState pins the compatibility rule for checkpoints the
// unsharded scheduler of older releases wrote: one domain and no set
// state. A single-domain set imports them; a multi-domain set still
// refuses a state without its placement map.
func TestImportNilSetState(t *testing.T) {
	for _, n := range []int{1, 2} {
		d, m := buildDomains(t, StrictPolicy{}, DefaultDomainConfig(n))
		st := d.ExportState()
		st.Set = nil
		fresh := mustDomainSet(t, StrictPolicy{}, m.Config().LLCCapacity, DefaultDomainConfig(n))
		err := fresh.ImportState(st, m.ThreadByID)
		if n == 1 && err != nil {
			t.Errorf("one-domain import of a nil-Set state: %v", err)
		}
		if n > 1 && err == nil {
			t.Errorf("%d-domain set imported a state with no set state", n)
		}
	}
}
