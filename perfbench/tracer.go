package main

import (
	"time"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// layer is a module of the program that host time is attributed to.
// The tracer keeps a stack of layers: whichever layer is on top when
// the clock advances is charged, so a wrapped call's self time excludes
// every wrapped call nested inside it.
type layer int

const (
	layerBench     layer = iota // the harness itself: input copies, gate construction, output extraction
	layerBuild                  // machine.New + Machine.AddWorkload
	layerMachine                // Machine.Run, minus the layers nested inside it
	layerUnblock                // Machine.Unblock, called by the gate through core.Waker
	layerCore                   // machine.Gate calls, core.Timer callbacks, end-of-run Quiesce/Stats
	layerTrace                  // trace collector Record/Finish through core.EventSink
	layerBlame                  // blame collector Record/RecordDeny through core.BlameSink
	layerBlameFin               // blame Collector.Finish + Report
	layerTelemetry              // PublishStats + Report.Publish
	numLayers
)

// tracer splits host time across layers from outside the program: every
// wrapper below enters its layer on the way in and leaves it on the way
// out. It also holds the counts read at the same boundaries. A tracer
// is used by one goroutine.
type tracer struct {
	self  [numLayers]time.Duration
	stack []layer
	mark  time.Time

	enterCalls, exitCalls, admitted uint64
	timerFires, unblockCalls        uint64
	traceRecords                    uint64
	events                          uint64
	queueMax                        int
	threads                         int // most threads in one machine
	denied, woken                   uint64
	placements, steals              uint64
	runTime                         time.Duration // Machine.Run wall time, nested layers included

	// Profiler pipeline stages, timed directly (wss-profile).
	refs, windows, periods                     uint64
	genTime, windowsTime, detectTime, annotate time.Duration

	// gateDelay and sinkDelay spin inside the timed region of the gate
	// and trace-sink wrappers. Only the attribution self-test sets them.
	gateDelay, sinkDelay time.Duration
}

func newTracer() *tracer {
	return &tracer{stack: make([]layer, 1, 16), mark: time.Now()}
}

// enter charges the time since the last boundary to the current layer
// and makes l current.
func (tr *tracer) enter(l layer) {
	now := time.Now()
	tr.self[tr.stack[len(tr.stack)-1]] += now.Sub(tr.mark)
	tr.stack = append(tr.stack, l)
	tr.mark = now
}

// exit charges the time since the last boundary to the current layer
// and returns to the layer below it.
func (tr *tracer) exit() {
	now := time.Now()
	tr.self[tr.stack[len(tr.stack)-1]] += now.Sub(tr.mark)
	tr.stack = tr.stack[:len(tr.stack)-1]
	tr.mark = now
}

// spin busy-waits for d (test-only delay injection).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}

// timedGate wraps the admission gate the machine calls on every
// declared phase boundary.
type timedGate struct {
	g  machine.Gate
	tr *tracer
}

func (g *timedGate) EnterPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) bool {
	g.tr.enterCalls++
	g.tr.enter(layerCore)
	spin(g.tr.gateDelay)
	ok := g.g.EnterPhase(t, phaseIdx, ph)
	g.tr.exit()
	if ok {
		g.tr.admitted++
	}
	return ok
}

func (g *timedGate) ExitPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) {
	g.tr.exitCalls++
	g.tr.enter(layerCore)
	spin(g.tr.gateDelay)
	g.g.ExitPhase(t, phaseIdx, ph)
	g.tr.exit()
}

// timedWaker wraps the machine as the gate's core.Waker: resuming a
// paused thread is machine work done on the gate's behalf.
type timedWaker struct {
	m  *machine.Machine
	tr *tracer
}

func (w *timedWaker) Unblock(t *machine.Thread) {
	w.tr.unblockCalls++
	w.tr.enter(layerUnblock)
	w.m.Unblock(t)
	w.tr.exit()
}

// timedTimer wraps the engine as the gate's core.Timer. Scheduling is
// untouched; the callbacks it fires (leases, deadlines, steal and audit
// ticks) are gate work and are charged to core.
type timedTimer struct {
	eng *sim.Engine
	tr  *tracer
}

func (tt *timedTimer) After(d sim.Duration, fn func()) *sim.Event {
	return tt.eng.After(d, func() {
		tt.tr.timerFires++
		tt.tr.enter(layerCore)
		fn()
		tt.tr.exit()
	})
}

func (tt *timedTimer) Cancel(ev *sim.Event) { tt.eng.Cancel(ev) }

// timedSink wraps the span collector's core.EventSink.
type timedSink struct {
	s  core.EventSink
	tr *tracer
}

func (s *timedSink) Record(e core.Event) {
	s.tr.traceRecords++
	s.tr.enter(layerTrace)
	spin(s.tr.sinkDelay)
	s.s.Record(e)
	s.tr.exit()
}

// timedBlameSink wraps the blame collector. It implements
// core.BlameSink, so the gate still hands it the blocker snapshot on
// every deny exactly as it would the bare collector.
type timedBlameSink struct {
	s  core.BlameSink
	tr *tracer
}

func (s *timedBlameSink) Record(e core.Event) {
	s.tr.enter(layerBlame)
	s.s.Record(e)
	s.tr.exit()
}

func (s *timedBlameSink) RecordDeny(e core.Event, blockers []core.Blocker) {
	s.tr.enter(layerBlame)
	s.s.RecordDeny(e, blockers)
	s.tr.exit()
}
