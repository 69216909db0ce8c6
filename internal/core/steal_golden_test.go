package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// The steal-sequence golden pins every cross-domain migration — each
// EventSteal and EventEvacuate as (At, ID, proc, phase, src, dst) — of
// seeded multi-domain runs: 2, 3 and 4 domains under Strict and
// Compromise, one governed run with misdeclaring processes, and one run
// that crashes a domain and reintegrates it. Any change to the steal
// pass's candidate order, its fit test or its re-scan timing moves a
// line here. Regenerate with
//
//	go test ./internal/core -run TestStealSequenceGolden -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

// stealCase is one seeded multi-domain run.
type stealCase struct {
	name     string
	seed     uint64
	domains  int
	policy   Policy
	stealAge sim.Duration
	procs    int
	robust   bool // period lease and admission deadline
	governor bool // governor ladder plus misdeclaration faults; implies robust
	crash    bool // recovery: crash one domain mid-run, reintegrate it later
	mode     RecoveryMode
}

// stealWorkload is a seeded workload sized so that a domain's share of
// the LLC holds only a few periods at once: periods queue on busy
// domains while their peers drain, which is what the steal pass acts on.
func stealWorkload(seed uint64, procs int) proc.Workload {
	rng := sim.NewRNG(seed)
	w := proc.Workload{Name: "steal"}
	for p := 0; p < procs; p++ {
		var prog proc.Program
		for q, n := 0, 3+rng.Intn(6); q < n; q++ {
			prog = append(prog, proc.Phase{
				Name:             "ph",
				Instr:            float64(1+rng.Intn(20)) * 1e5,
				WSS:              pp.Bytes(256+rng.Intn(3*1024)) * pp.KiB,
				Reuse:            pp.Reuse(rng.Intn(3)),
				AccessesPerInstr: 0.1 + 0.4*rng.Float64(),
				PrivateHitFrac:   0.5 + 0.4*rng.Float64(),
				StreamFrac:       rng.Float64(),
				FlopsPerInstr:    rng.Float64(),
				Declared:         rng.Intn(6) != 0,
				BarrierAfter:     rng.Intn(6) == 0,
			})
		}
		w.Procs = append(w.Procs, proc.Spec{
			Name:     "st",
			Threads:  1 + rng.Intn(3),
			Program:  prog,
			TaskPool: rng.Intn(5) == 0,
		})
	}
	return w
}

// eventLog records a run's whole decision stream.
type eventLog struct{ evs []Event }

func (l *eventLog) Record(e Event) { l.evs = append(l.evs, e) }

// events runs the case to completion and returns its decision stream;
// oracle swaps in the sort-based steal pass (steal_oracle_test.go).
func (c stealCase) events(oracle bool) ([]Event, error) {
	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	d, err := NewDomainSet(c.policy, cfg.LLCCapacity, DomainConfig{Domains: c.domains, StealAge: c.stealAge})
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg, d)
	d.SetWaker(m)
	d.SetClock(m.Now)
	d.SetTimer(m.Engine())
	if oracle {
		d.stealPass = d.sortStealPass
	}
	w := stealWorkload(c.seed, c.procs)
	if c.robust || c.governor {
		d.SetLease(chaosLease)
		d.SetAdmissionDeadline(chaosDeadline)
	}
	if c.governor {
		d.EnableGovernor(governorFuzzConfig(uint8(c.seed)))
		w = faults.Uniform(0.3, cfg.LLCCapacity).Apply(w, c.seed)
	}
	if c.crash {
		if err := d.EnableRecovery(RecoveryConfig{
			Mode:          c.mode,
			MaxRetries:    3,
			RetryBase:     500 * sim.Microsecond,
			AuditInterval: 2 * sim.Millisecond,
		}); err != nil {
			return nil, err
		}
		victim := int(c.seed % uint64(c.domains))
		m.Engine().After(60*sim.Millisecond, func() {
			if err := d.InjectLedgerCorruption((victim+1)%c.domains, pp.MiB); err != nil {
				panic(err)
			}
		})
		m.Engine().After(100*sim.Millisecond, func() {
			if err := d.InjectCrash(victim); err != nil {
				panic(err)
			}
		})
		m.Engine().After(250*sim.Millisecond, func() {
			if err := d.RecoverDomain(victim); err != nil {
				panic(err)
			}
		})
	}
	log := &eventLog{}
	d.AddSink(log)
	if err := m.AddWorkload(w); err != nil {
		return nil, err
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	d.Quiesce()
	return log.evs, nil
}

// stealGoldenCases are the runs the golden pins.
func stealGoldenCases() []stealCase {
	var cs []stealCase
	for _, n := range []int{2, 3, 4} {
		for _, pol := range []Policy{StrictPolicy{}, NewCompromise()} {
			cs = append(cs, stealCase{
				name: fmt.Sprintf("%ddom-%s", n, pol.Name()), seed: uint64(10 + n),
				domains: n, policy: pol, stealAge: 200 * sim.Microsecond, procs: 64,
				robust: n == 3,
			})
		}
	}
	return append(cs,
		stealCase{name: "3dom-strict-governor", seed: 7, domains: 3, policy: StrictPolicy{},
			stealAge: 200 * sim.Microsecond, procs: 64, governor: true},
		stealCase{name: "4dom-strict-crash", seed: 5, domains: 4, policy: StrictPolicy{},
			stealAge: 200 * sim.Microsecond, procs: 64, robust: true, crash: true},
	)
}

// migrationLines renders every steal and evacuation of a decision
// stream. The source domain is the one the period's previous event
// happened on; the destination is the migration event's own domain.
func migrationLines(evs []Event) (lines []string, steals, evacs int) {
	where := map[pp.ID]int{}
	for _, e := range evs {
		if e.ID == 0 {
			continue
		}
		switch e.Kind {
		case EventSteal, EventEvacuate:
			if e.Kind == EventSteal {
				steals++
			} else {
				evacs++
			}
			lines = append(lines, fmt.Sprintf("%d %s id=%d proc=%d phase=%d %d->%d",
				int64(e.At), e.Kind, e.ID, e.Proc, e.Phase, where[e.ID], e.Domain))
		}
		where[e.ID] = e.Domain
	}
	return lines, steals, evacs
}

func TestStealSequenceGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range stealGoldenCases() {
		evs, err := c.events(false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines, steals, evacs := migrationLines(evs)
		if steals == 0 {
			t.Errorf("%s: no steals — the case no longer exercises the steal pass", c.name)
		}
		fmt.Fprintf(&b, "case %s seed %d events %d steals %d evacuations %d\n",
			c.name, c.seed, len(evs), steals, evacs)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "steals.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
