package perf

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

func tinyWorkload(n int, declared bool) proc.Workload {
	ph := proc.Phase{
		Name: "k", Instr: 1e7, WSS: pp.MB(2), Reuse: pp.ReuseHigh,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5,
		Declared: declared,
	}
	spec := proc.Spec{Name: "p", Threads: 1, Program: proc.Program{ph}}
	return proc.Workload{Name: "tiny", Procs: proc.Replicate(spec, n)}
}

func TestRunDefaultPolicy(t *testing.T) {
	m, sd, err := Run(tinyWorkload(4, true), RunConfig{
		Machine: machine.DefaultConfig(), Policy: nil, Repetitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.SystemJ <= 0 || m.GFLOPS <= 0 || m.ElapsedSec <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.Blocks != 0 {
		t.Fatal("default policy blocked threads (Declared flags not stripped?)")
	}
	if sd.SystemJ != 0 {
		t.Fatal("single repetition has nonzero stddev")
	}
}

func TestRunStrictPolicy(t *testing.T) {
	// 12 × 2 MB = 24 MB on 15 MB: strict must deny some periods.
	m, _, err := Run(tinyWorkload(12, true), RunConfig{
		Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}, Repetitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocks == 0 || m.Wakeups == 0 {
		t.Fatalf("strict policy did not gate anything: %+v", m)
	}
}

func TestRepetitionsWithJitter(t *testing.T) {
	m, sd, err := Run(tinyWorkload(6, true), RunConfig{
		Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
		Repetitions: 4, JitterFrac: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sd.ElapsedSec <= 0 {
		t.Fatal("jittered repetitions produced zero variance")
	}
	// The paper reports ~2% run-to-run deviation; jitter of 2% should
	// keep relative stddev in the same ballpark (well under 10%).
	if sd.ElapsedSec/m.ElapsedSec > 0.1 {
		t.Fatalf("relative stddev %v implausibly high", sd.ElapsedSec/m.ElapsedSec)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	rc := RunConfig{Machine: machine.DefaultConfig(), Policy: core.NewCompromise(),
		Repetitions: 2, JitterFrac: 0.02, Seed: 42}
	a, _, err := Run(tinyWorkload(8, true), rc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(tinyWorkload(8, true), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestUndeclare(t *testing.T) {
	w := tinyWorkload(2, true)
	u := Undeclare(w)
	for _, s := range u.Procs {
		for _, ph := range s.Program {
			if ph.Declared {
				t.Fatal("Undeclare left a declared phase")
			}
		}
	}
	// Original untouched.
	if !w.Procs[0].Program[0].Declared {
		t.Fatal("Undeclare mutated its input")
	}
}

func TestInstrumentationOverheadVisible(t *testing.T) {
	// Same workload, same admission outcome (all fit): the instrumented
	// run pays API overhead, so it is slightly slower.
	small := tinyWorkload(3, true) // 6 MB < 15 MB: no denials even strict
	base, _, err := Run(small, RunConfig{Machine: machine.DefaultConfig(), Policy: nil})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Run(small, RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.ElapsedSec <= base.ElapsedSec {
		t.Fatal("instrumented run not slower than uninstrumented")
	}
	if (inst.ElapsedSec-base.ElapsedSec)/base.ElapsedSec > 0.05 {
		t.Fatal("single-period overhead implausibly large")
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	if _, _, err := Run(proc.Workload{Name: "empty"}, RunConfig{Machine: machine.DefaultConfig()}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestMetricConsistency(t *testing.T) {
	m, _, err := Run(tinyWorkload(4, true), RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SystemJ-(m.PackageJ+m.DRAMJ)) > 1e-9 {
		t.Fatal("system != package + dram")
	}
	wantEff := m.GFLOPS * m.ElapsedSec / m.SystemJ
	if math.Abs(m.GFLOPSPerWatt-wantEff)/wantEff > 1e-9 {
		t.Fatalf("GFLOPS/W inconsistent: %v vs %v", m.GFLOPSPerWatt, wantEff)
	}
}

// TestKilledRepetitionsEachCheckpoint kills every repetition of a
// two-repetition Strict run: Run reports the kill, and each repetition
// has left a checkpoint a restore can load, rep 0 in Dir and rep 1 in
// Dir/rep1.
func TestKilledRepetitionsEachCheckpoint(t *testing.T) {
	w := tinyWorkload(12, true)
	rc := RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}}
	base, err := Sample(w, rc, 0)
	if err != nil {
		t.Fatal(err)
	}
	killAt := sim.FromSeconds(base.ElapsedSec / 2)
	dir := t.TempDir()
	rc.Repetitions = 2
	rc.Faults = &faults.Plan{KillAt: killAt}
	rc.Checkpoint = &persist.Config{Dir: dir}
	if _, _, err := Run(w, rc); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("killed run returned %v, want machine.ErrHalted", err)
	}
	for _, d := range []string{dir, filepath.Join(dir, "rep1")} {
		res, err := persist.Restore(d)
		if err != nil {
			t.Fatalf("restore %s: %v", d, err)
		}
		if res.KillAt != killAt {
			t.Fatalf("%s: restored KillAt %v, want %v", d, res.KillAt, killAt)
		}
	}
}

// TestAddSinkSpansRevival subscribes a decision ring through Rep.AddSink
// to a run revived from a checkpoint: revival binds the sink to the gate
// built from the checkpoint too, so the ring holds the same decisions as
// the ring of a run that was never killed.
func TestAddSinkSpansRevival(t *testing.T) {
	w := tinyWorkload(12, true)
	rc := RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}}
	ringRun := func(rc RunConfig) []core.Event {
		t.Helper()
		r, err := Start(w, rc, 0)
		if err != nil {
			t.Fatal(err)
		}
		ring := core.NewEventRing(1 << 12)
		r.AddSink(ring)
		if _, _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		if ring.Drops() != 0 {
			t.Fatalf("ring dropped %d decisions", ring.Drops())
		}
		return ring.Events()
	}
	want := ringRun(rc)
	killAt := want[len(want)-1].At.DurationSince(0) / 2

	dir := t.TempDir()
	krc := rc
	krc.Faults = &faults.Plan{KillAt: killAt}
	krc.Checkpoint = &persist.Config{Dir: dir}
	if _, err := Sample(w, krc, 0); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("killed run returned %v, want machine.ErrHalted", err)
	}
	res, err := persist.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rrc := rc
	rrc.Restore = res
	got := ringRun(rrc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("revived run's ring holds %d decisions, the unkilled run's %d; they differ", len(got), len(want))
	}
	if last := got[len(got)-1].At.DurationSince(0); last <= killAt {
		t.Fatalf("last decision at %v, not after the kill at %v", last, killAt)
	}
}
