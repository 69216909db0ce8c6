package core

import (
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// stealChurn drives a 4-domain Strict DomainSet from core alone: an
// event engine is the clock and the timer, the machine model never runs
// (it only hands out thread handles), and a seeded stream of pp_begin /
// pp_end calls churns the gate. Each process has one thread cycling
// through its own declared phases, so waitlists build on busy domains
// and the steal pass runs after every release.
type stealChurn struct {
	d       *DomainSet
	eng     *sim.Engine
	rng     *sim.RNG
	threads []*machine.Thread
	progs   []proc.Program
	cur     []int  // per process: phase it is in or about to enter
	inside  []bool // per process: admitted into cur
	waiting []bool // per process: waitlisted on cur
}

// stealChurnAge is the churn's steal age: a few steps' worth of clock,
// so most waiters age before their own domain frees up.
const stealChurnAge = 50 * sim.Microsecond

func newStealChurn(tb testing.TB, procs int, seed uint64) *stealChurn {
	tb.Helper()
	cfg := machine.DefaultConfig()
	d, err := NewDomainSet(StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 4, StealAge: stealChurnAge})
	if err != nil {
		tb.Fatal(err)
	}
	m := machine.New(cfg, d)
	c := &stealChurn{
		d:       d,
		eng:     sim.NewEngine(seed),
		rng:     sim.NewRNG(seed),
		cur:     make([]int, procs),
		inside:  make([]bool, procs),
		waiting: make([]bool, procs),
	}
	for p := 0; p < procs; p++ {
		var prog proc.Program
		for q := 0; q < 8; q++ {
			prog = append(prog, proc.Phase{
				Name:     "ph",
				Instr:    1e6,
				WSS:      pp.Bytes(512+c.rng.Intn(2560)) * pp.KiB,
				Declared: true,
			})
		}
		if _, err := m.AddProcess(proc.Spec{Name: "churn", Threads: 1, Program: prog}); err != nil {
			tb.Fatal(err)
		}
		c.progs = append(c.progs, prog)
		c.threads = append(c.threads, m.ThreadByID(p))
	}
	d.SetWaker(c)
	d.SetClock(c.eng.Now)
	d.SetTimer(c.eng)
	return c
}

// Unblock implements Waker: a woken (or stolen) waiter is now inside.
func (c *stealChurn) Unblock(t *machine.Thread) {
	p := t.Process().ID()
	c.waiting[p], c.inside[p] = false, true
}

// step advances the clock 1–20µs (firing any due steal tick) and has one
// random process end its period or begin its next one.
func (c *stealChurn) step() {
	c.eng.RunUntil(c.eng.Now().Add(sim.Duration(1+c.rng.Intn(20)) * sim.Microsecond))
	p := c.rng.Intn(len(c.threads))
	t, q := c.threads[p], c.cur[p]
	switch {
	case c.waiting[p]:
	case c.inside[p]:
		c.inside[p] = false
		c.d.ExitPhase(t, q, &c.progs[p][q])
		c.cur[p] = (q + 1) % len(c.progs[p])
	default:
		if c.d.EnterPhase(t, q, &c.progs[p][q]) {
			c.inside[p] = true
		} else {
			c.waiting[p] = true
		}
	}
}

// BenchmarkStealScan is the gate rung of the per-layer ladder: one op is
// one churn step (a pp_begin or pp_end with its wake cascade and steal
// pass) on 24 processes over 4 domains.
func BenchmarkStealScan(b *testing.B) {
	c := newStealChurn(b, 24, 1)
	for i := 0; i < 2000; i++ {
		c.step() // fill the domains and their waitlists
	}
	before := c.d.Stats().Admitted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.d.Stats().Admitted-before)/b.Elapsed().Seconds(), "admissions/s")
	b.ReportMetric(float64(c.d.DomainStats().Steals)/float64(2000+b.N), "steals/step")
}

// TestStealScanAllocs pins the steal pass's zero-allocation contract: a
// pass over aged waiters that fit nowhere allocates nothing, whether
// the memo spares the probes or every waiter is probed in full.
func TestStealScanAllocs(t *testing.T) {
	c := newStealChurn(t, 24, 1)
	aged := func() int {
		n := 0
		for _, s := range c.d.shards {
			s.waitlist.Each(func(per *period, _ uint64) {
				if c.eng.Now().DurationSince(per.enqueuedAt) >= stealChurnAge {
					n++
				}
			})
		}
		return n
	}
	for i := 0; aged() < 4; i++ {
		if i == 100000 {
			t.Fatal("churn never built four aged waiters")
		}
		c.step()
	}
	// The last step's steal pass left nothing movable at this instant.
	steals := c.d.DomainStats().Steals
	for _, tc := range []struct {
		name string
		scan func()
	}{
		{"memo", c.d.stealScan},
		{"full", func() { c.d.memo.valid = false; c.d.stealScan() }},
	} {
		if n := testing.AllocsPerRun(100, tc.scan); n != 0 {
			t.Errorf("%s: steal pass allocated %v times per run, want 0", tc.name, n)
		}
	}
	if got := c.d.DomainStats().Steals; got != steals {
		t.Fatalf("steals %d -> %d: the measured passes migrated", steals, got)
	}
}
