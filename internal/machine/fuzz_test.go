package machine

import (
	"fmt"
	"math"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// FuzzMachineInvariants runs random small workloads (phases, weights,
// barriers, crashes, cache partitions, a bandwidth roofline, and a
// toggling gate with wake latency) and checks the fluid model's
// invariants after every engine step and at the end of the run.
func FuzzMachineInvariants(f *testing.F) {
	for _, c := range [][2]uint64{{0, 0}, {1, 1}, {2, 2}, {42, 3}, {1337, 0}, {^uint64(0), 1}} {
		f.Add(c[0], uint8(c[1]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		if err := checkMachineInvariants(seed, shape); err != nil {
			t.Error(err)
		}
	})
}

// randomWorkload draws a machine config, whether to gate, and a process
// mix from seed. shape's low bits force the gate and a tight memory
// bandwidth so the fuzzer reaches both regardless of the seed's draws.
func randomWorkload(seed uint64, shape uint8) (Config, bool, sim.Duration, []proc.Spec) {
	r := sim.NewRNG(seed)
	cfg := testConfig()
	cfg.Cores = 1 + r.Intn(8)
	if r.Intn(2) == 0 {
		cfg.WakeLatency = sim.Duration(1+r.Intn(200)) * sim.Microsecond
	}
	cfg.WakeRefillFactor = float64(r.Intn(3)) / 2
	if r.Intn(2) == 0 {
		cfg.OverheadAPIInstr = 2400
		cfg.OverheadKernelInstr = 245_000
	}
	if shape&2 != 0 || r.Intn(3) == 0 {
		cfg.MemBandwidth = 1e9 + float64(r.Intn(8))*1e9
	}
	gated := shape&1 != 0 || r.Intn(2) == 0
	release := sim.Duration(1+r.Intn(3000)) * 100 * sim.Microsecond

	procs := make([]proc.Spec, 1+r.Intn(6))
	for i := range procs {
		s := proc.Spec{Name: fmt.Sprintf("p%d", i), Threads: 1 + r.Intn(4)}
		if r.Intn(2) == 0 {
			s.Weight = 0.25 * float64(1+r.Intn(16))
		}
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			// Phases run for 5e8–5e9 instructions so that per-completion
			// rounding (under a picosecond of rate) stays far below the
			// final 1e-9 instruction-conservation bound.
			ph := proc.Phase{
				Name:             fmt.Sprintf("k%d", j),
				Instr:            5e8 + r.Float64()*4.5e9,
				WSS:              pp.Bytes(1+r.Intn(48)) * 256 * pp.KiB,
				Reuse:            pp.Reuse(r.Intn(3)),
				AccessesPerInstr: 0.05 + 0.6*r.Float64(),
				PrivateHitFrac:   r.Float64(),
				StreamFrac:       float64(r.Intn(3)) / 2,
				FlopsPerInstr:    r.Float64(),
				Declared:         r.Intn(2) == 0,
				BarrierAfter:     s.Threads > 1 && r.Intn(3) == 0,
			}
			if r.Intn(5) == 0 {
				ph.CachePartition = pp.Bytes(1+r.Intn(8)) * 512 * pp.KiB
			}
			if r.Intn(10) == 0 {
				ph.CrashFrac = 0.1 + 0.9*r.Float64()
			}
			if ph.Declared && r.Intn(10) == 0 {
				ph.LeakEnd = true
			}
			s.Program = append(s.Program, ph)
		}
		procs[i] = s
	}
	return cfg, gated, release, procs
}

// checkMachineInvariants runs one random workload. After every engine
// step it checks that m.live is exactly the non-Done threads in
// increasing id order, every share lies in [0,1], the Ready shares sum to
// at most Cores, and system energy never decreases. At the end the
// retired instructions must equal the instructions of every phase that
// ran to completion (plus the truncated part of each crashed phase).
func checkMachineInvariants(seed uint64, shape uint8) error {
	cfg, gated, release, procs := randomWorkload(seed, shape)
	m := newTestMachine(cfg, gated, release)
	for _, s := range procs {
		if _, err := m.AddProcess(s); err != nil {
			return err
		}
	}
	cores := float64(cfg.Cores)
	ulp := math.Nextafter(cores, math.Inf(1)) - cores
	var stepErr error
	steps := 0
	lastJ := 0.0
	m.Engine().SetStepHook(func(now sim.Time) {
		steps++
		if stepErr != nil {
			return
		}
		fail := func(format string, args ...any) {
			stepErr = fmt.Errorf("seed %d shape %d step %d at %v: %s", seed, shape, steps, now, fmt.Sprintf(format, args...))
		}
		i := 0
		sum, ready := 0.0, 0
		for _, t := range m.threads {
			if t.share < 0 || t.share > 1 {
				fail("thread %d share %v outside [0,1]", t.id, t.share)
				return
			}
			if t.state == Ready {
				sum += t.share
				ready++
			}
			if t.state == Done {
				continue
			}
			if i >= len(m.live) || m.live[i] != t {
				fail("live set diverges from the non-Done threads at index %d (thread %d)", i, t.id)
				return
			}
			i++
		}
		if i != len(m.live) {
			fail("live holds %d threads, %d are not done", len(m.live), i)
			return
		}
		// Each share carries at most one rounding into the sum.
		if sum > cores+float64(ready)*ulp {
			fail("ready shares sum to %v on %d cores", sum, cfg.Cores)
			return
		}
		if j := m.meter.SystemJoules(); j < lastJ {
			fail("system energy fell from %v to %v J", lastJ, j)
		} else {
			lastJ = j
		}
	})
	res, err := m.Run()
	if err != nil {
		return fmt.Errorf("seed %d shape %d: %w", seed, shape, err)
	}
	if stepErr != nil {
		return stepErr
	}
	var want float64
	for _, t := range m.threads {
		prog := t.proc.spec.Program
		for i := 0; i < t.phase && i < len(prog); i++ {
			want += prog[i].Instr
		}
		if t.phase < len(prog) { // died mid-phase
			want += prog[t.phase].Instr * prog[t.phase].CrashFrac
		}
	}
	if got := res.Counters.Instructions; math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("seed %d shape %d: retired %v instructions, phases account for %v", seed, shape, got, want)
	}
	return nil
}
