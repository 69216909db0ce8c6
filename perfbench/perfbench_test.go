package main

import (
	"reflect"
	"testing"
	"time"
)

// tracedOnce runs one traced unit of u under a fresh tracer carrying the
// given injected delays and returns the tracer.
func tracedOnce(t *testing.T, u unit, gateDelay, sinkDelay time.Duration) *tracer {
	t.Helper()
	tr := newTracer()
	tr.gateDelay, tr.sinkDelay = gateDelay, sinkDelay
	if _, err := u.traced(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func machineSelf(tr *tracer) time.Duration { return tr.self[layerMachine] + tr.self[layerUnblock] }

// A delay injected inside the gate wrapper must land in core.self_s and
// not in machine.self_s: the split must not hand gate time to the
// machine that called the gate.
func TestGateDelayIsChargedToCore(t *testing.T) {
	u := gateChurn(1, 8, 30)
	const delay = 200 * time.Microsecond
	base := tracedOnce(t, u, 0, 0)
	slow := tracedOnce(t, u, delay, 0)
	injected := time.Duration(slow.enterCalls+slow.exitCalls) * delay
	if injected == 0 {
		t.Fatal("no gate calls")
	}
	dCore := slow.self[layerCore] - base.self[layerCore]
	dMachine := machineSelf(slow) - machineSelf(base)
	t.Logf("injected %v: core +%v, machine %+v", injected, dCore, dMachine)
	if dCore < injected*9/10 {
		t.Errorf("core.self_s grew by %v, want at least 90%% of the injected %v", dCore, injected)
	}
	if dMachine > injected/10 {
		t.Errorf("machine.self_s grew by %v of the %v injected into the gate", dMachine, injected)
	}
}

// A delay injected inside the trace-sink wrapper must land in
// trace.record_s, not in the gate that emitted the event.
func TestSinkDelayIsChargedToTrace(t *testing.T) {
	u := gateChurn(1, 8, 30)
	const delay = 100 * time.Microsecond
	base := tracedOnce(t, u, 0, 0)
	slow := tracedOnce(t, u, 0, delay)
	injected := time.Duration(slow.traceRecords) * delay
	if injected == 0 {
		t.Fatal("no trace records")
	}
	dTrace := slow.self[layerTrace] - base.self[layerTrace]
	dCore := slow.self[layerCore] - base.self[layerCore]
	dMachine := machineSelf(slow) - machineSelf(base)
	t.Logf("injected %v: trace +%v, core %+v, machine %+v", injected, dTrace, dCore, dMachine)
	if dTrace < injected*9/10 {
		t.Errorf("trace.record_s grew by %v, want at least 90%% of the injected %v", dTrace, injected)
	}
	if dCore > injected/10 || dMachine > injected/10 {
		t.Errorf("sink delay leaked: core %+v, machine %+v of %v", dCore, dMachine, injected)
	}
}

// Two seeds give different generated inputs, one seed always the same
// inputs, and every seed passes the checks that do not depend on it:
// the hand-wired run reproduces perf.Run bit for bit, retires every
// declared instruction, and conserves blame.
func TestSeededGenerators(t *testing.T) {
	if reflect.DeepEqual(threadScaleWorkload(1, 64), threadScaleWorkload(2, 64)) {
		t.Error("thread-scale: seeds 1 and 2 gave the same inputs")
	}
	if reflect.DeepEqual(gateChurnWorkload(1, 8, 30), gateChurnWorkload(2, 8, 30)) {
		t.Error("gate-churn: seeds 1 and 2 gave the same inputs")
	}
	if !reflect.DeepEqual(gateChurnWorkload(7, 8, 30), gateChurnWorkload(7, 8, 30)) {
		t.Error("gate-churn: one seed gave different inputs")
	}
	for _, seed := range []uint64{1, 2} {
		for name, u := range map[string]*simRun{
			"thread-scale": threadScale(seed, 64),
			"gate-churn":   gateChurn(seed, 8, 30),
		} {
			ref, err := u.run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			wired, err := u.traced(newTracer())
			if err != nil {
				t.Fatalf("%s seed %d: wired: %v", name, seed, err)
			}
			if err := diff(wired.withoutEvents(), ref); err != nil {
				t.Errorf("%s seed %d: wired run differs from perf.Run: %v", name, seed, err)
			}
			if err := checkOutputs(wired); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// Every workload at the default seed reproduces its stored golden, both
// through the program's entry point and through the hand-wired path.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every full-size workload")
	}
	for _, wl := range benchWorkloads {
		golden, err := readGolden("golden", wl.name)
		if err != nil {
			t.Fatal(err)
		}
		u := wl.prepare(defaultSeed)
		out, err := u.run()
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if err := diff(out, golden.withoutEvents()); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		wired, err := u.traced(newTracer())
		if err != nil {
			t.Fatalf("%s: wired: %v", wl.name, err)
		}
		if err := diff(wired, golden); err != nil {
			t.Errorf("%s: wired: %v", wl.name, err)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1
	}
	v, p := tailPercentile(xs)
	if v != 30 || p != 75 { // ten samples (31..40) beyond it
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	if v, p := tailPercentile([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Errorf("tail of three samples = %v at p%v, want the maximum", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
