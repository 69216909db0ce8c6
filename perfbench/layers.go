package main

import (
	"fmt"
	"os"
	"time"
)

// layerMetrics turns a tracer's totals over the traced units into the
// per-layer metrics: counts and wall-clock times per traced unit, rates
// over the layer's own time. timed and timedWall hold each traced
// unit's CPU and wall seconds; plainS is the median untraced unit in
// CPU seconds. Ratios with a zero base read 0.
func layerMetrics(tr *tracer, timed, timedWall []float64, plainS float64) map[string]metric {
	n := len(timed)
	unitS := median(timed)
	per := func(v float64) float64 { return v / float64(n) }
	cnt := func(v uint64) float64 { return per(float64(v)) }
	secs := func(d time.Duration) float64 { return per(d.Seconds()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	machineT := tr.self[layerMachine] + tr.self[layerUnblock]
	coreT := tr.self[layerCore]
	coreCalls := tr.enterCalls + tr.exitCalls + tr.timerFires
	windowsT := tr.windowsTime - tr.genTime

	m := map[string]metric{
		"sim.events":          {cnt(tr.events), "count"},
		"sim.events_per_s":    {ratio(float64(tr.events), tr.runTime.Seconds()), "1/s"},
		"sim.queue_depth_max": {float64(tr.queueMax), "count"},

		"machine.self_s":        {secs(machineT), "s"},
		"machine.ns_per_event":  {ratio(float64(machineT.Nanoseconds()), float64(tr.events)), "ns"},
		"machine.build_s":       {secs(tr.self[layerBuild]), "s"},
		"machine.unblock_calls": {cnt(tr.unblockCalls), "count"},
		"machine.unblock_s":     {secs(tr.self[layerUnblock]), "s"},
		"machine.threads":       {float64(tr.threads), "count"},

		"core.enter_calls": {cnt(tr.enterCalls), "count"},
		"core.exit_calls":  {cnt(tr.exitCalls), "count"},
		"core.timer_fires": {cnt(tr.timerFires), "count"},
		"core.self_s":      {secs(coreT), "s"},
		"core.ns_per_call": {ratio(float64(coreT.Nanoseconds()), float64(coreCalls)), "ns"},
		"core.calls_per_s": {ratio(float64(coreCalls), coreT.Seconds()), "1/s"},
		"core.denied":      {cnt(tr.denied), "count"},
		"core.admit_ratio": {ratio(float64(tr.admitted), float64(tr.enterCalls)), "ratio"},
		"core.woken":       {cnt(tr.woken), "count"},
		"core.placements":  {cnt(tr.placements), "count"},
		"core.steals":      {cnt(tr.steals), "count"},

		"telemetry.publish_s": {secs(tr.self[layerTelemetry]), "s"},
		"trace.records":       {cnt(tr.traceRecords), "count"},
		"trace.record_s":      {secs(tr.self[layerTrace]), "s"},
		"trace.ns_per_record": {ratio(float64(tr.self[layerTrace].Nanoseconds()), float64(tr.traceRecords)), "ns"},
		"blame.record_s":      {secs(tr.self[layerBlame]), "s"},
		"blame.finish_s":      {secs(tr.self[layerBlameFin]), "s"},

		"memtrace.refs":       {cnt(tr.refs), "count"},
		"memtrace.gen_s":      {secs(tr.genTime), "s"},
		"memtrace.refs_per_s": {ratio(float64(tr.refs), tr.genTime.Seconds()), "1/s"},

		"profiler.windows_s":  {secs(windowsT), "s"},
		"profiler.refs_per_s": {ratio(float64(tr.refs), windowsT.Seconds()), "1/s"},
		"profiler.windows":    {cnt(tr.windows), "count"},
		"profiler.detect_s":   {secs(tr.detectTime), "s"},
		"profiler.annotate_s": {secs(tr.annotate), "s"},
		"profiler.periods":    {cnt(tr.periods), "count"},

		"bench.traced_unit_s":       {unitS, "s"},
		"bench.trace_overhead_frac": {ratio(unitS, plainS) - 1, "ratio"},
	}

	// Shares of the traced units' wall time, for reading the split at a
	// glance.
	total := 0.0
	for _, t := range timedWall {
		total += t
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced units; share of traced wall time:", n)
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"machine", machineT},
		{"core", coreT},
		{"trace+blame", tr.self[layerTrace] + tr.self[layerBlame] + tr.self[layerBlameFin]},
		{"telemetry", tr.self[layerTelemetry]},
		{"build", tr.self[layerBuild]},
		{"memtrace", tr.genTime},
		{"profiler", windowsT + tr.detectTime + tr.annotate},
	} {
		fmt.Fprintf(os.Stderr, " %s %.3f", s.name, ratio(s.d.Seconds(), total))
	}
	fmt.Fprintln(os.Stderr)
	return m
}
