// Command perfbench is the repository benchmark. It runs one workload
// as a closed loop from a single goroutine, one unit after another,
// checks every unit's simulated outputs, and prints host-time metrics.
// With -trace 1 it alternates untraced units with units wired by hand
// through timing wrappers and prints the per-layer split instead.
//
//	go run . -workload gate-churn -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md documents the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	// defaultSeed is the seed the stored goldens were made with.
	defaultSeed = 1
	// setupRuns is how many times set-up is repeated; setup_s is the
	// median, so a slow set-up or two does not move it.
	setupRuns = 5
)

func main() {
	// Units run on this goroutine only; pinning it to one OS thread
	// makes that thread's CPU time the loop's (see cpuSeconds).
	runtime.LockOSThread()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	goldenDir   string
	writeGolden bool
}

func run(args []string) error {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name (paper-sweep, thread-scale, gate-churn, wss-profile)")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "host seconds to measure")
	fs.IntVar(&c.trace, "trace", 0, "1 prints the traced per-layer split instead of end-to-end metrics")
	fs.StringVar(&c.goldenDir, "golden", "golden", "directory of default-seed expected outputs")
	fs.BoolVar(&c.writeGolden, "write-golden", false, "store the default seed's outputs as the goldens and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive duration", c.seconds)
	}
	wl, err := lookupWorkload(c.workload)
	if err != nil {
		return err
	}
	if c.writeGolden {
		return storeGolden(wl, c)
	}
	res, err := measure(wl, c)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: the reference outputs every unit must
// reproduce and the tally of units attempted and failed.
type bench struct {
	c         config
	ref       outputs
	refErr    error   // non-nil when the reference itself is wrong: every unit fails
	wired     outputs // first hand-wired unit's outputs, event counts included
	haveWired bool
	golden    *outputs
	attempted int
	failed    int
}

// fail counts a failed unit and reports why on standard error.
func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// checkRun tallies one unit that went through the program's entry point.
func (b *bench) checkRun(out outputs, err error) {
	b.attempted++
	switch {
	case err != nil:
		b.fail("unit", err)
	case b.refErr != nil:
		b.fail("unit", b.refErr)
	default:
		if err := diff(out, b.ref); err != nil {
			b.fail("unit differs from the run's first unit", err)
		} else if err := checkOutputs(out); err != nil {
			b.fail("unit", err)
		}
	}
}

// checkWired tallies one hand-wired unit: it must reproduce the
// untraced reference bit for bit, every other wired unit including
// event counts, and, at the default seed, the golden.
func (b *bench) checkWired(out outputs, err error) {
	b.attempted++
	switch {
	case err != nil:
		b.fail("wired unit", err)
		return
	case b.refErr != nil:
		b.fail("wired unit", b.refErr)
		return
	}
	if err := diff(out.withoutEvents(), b.ref); err != nil {
		b.fail("wired unit differs from perf.Run/RunPolicyComparison", err)
		return
	}
	if err := checkOutputs(out); err != nil {
		b.fail("wired unit", err)
		return
	}
	if !b.haveWired {
		b.wired, b.haveWired = out, true
		if b.golden != nil {
			if err := diff(out, *b.golden); err != nil {
				b.fail("wired unit differs from the golden", err)
			}
		}
		return
	}
	if err := diff(out, b.wired); err != nil {
		b.fail("wired unit differs from the run's first wired unit", err)
	}
}

// setup builds the inputs and runs one warm-up unit, setupRuns times,
// and returns the last inputs and each set-up's CPU seconds. The first
// warm-up's outputs become the reference.
func (b *bench) setup(wl workload) (unit, []float64, error) {
	var u unit
	var times []float64
	for i := 0; i < setupRuns; i++ {
		c0 := cpuSeconds()
		u = wl.prepare(b.c.seed)
		out, err := u.run()
		times = append(times, cpuSeconds()-c0)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up unit: %w", err)
		}
		if i == 0 {
			b.ref = out
			b.attempted++
			if err := checkOutputs(out); err != nil {
				b.refErr = err
			} else if b.golden != nil {
				if err := diff(out, b.golden.withoutEvents()); err != nil {
					b.refErr = fmt.Errorf("differs from the golden: %w", err)
				}
			}
			if b.refErr != nil {
				b.fail("reference unit", b.refErr)
			}
			continue
		}
		b.checkRun(out, nil)
	}
	return u, times, nil
}

func measure(wl workload, c config) (result, error) {
	b := &bench{c: c}
	if c.seed == defaultSeed {
		g, err := readGolden(c.goldenDir, wl.name)
		if err != nil {
			return result{}, err
		}
		b.golden = &g
	}
	u, setups, err := b.setup(wl)
	if err != nil {
		return result{}, err
	}
	budget := time.Duration(c.seconds * float64(time.Second))
	var metrics map[string]metric
	if c.trace == 0 {
		metrics = b.untraced(u, budget)
		b.checkWired(u.traced(newTracer()))
		metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		metrics = b.traced(u, budget)
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// untraced runs units through the program's entry point for budget
// wall seconds and returns the end-to-end metrics. Unit times are CPU
// seconds (see cpuSeconds); wall-clock equivalents go to standard error.
func (b *bench) untraced(u unit, budget time.Duration) map[string]metric {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var cpu, wall, rss []float64
	start, cpuStart := time.Now(), cpuSeconds()
	for len(cpu) == 0 || time.Since(start) < budget {
		resetPeakRSS()
		w0, c0 := time.Now(), cpuSeconds()
		out, err := u.run()
		cpu = append(cpu, cpuSeconds()-c0)
		wall = append(wall, time.Since(w0).Seconds())
		rss = append(rss, peakRSS())
		b.checkRun(out, err)
	}
	cpuTotal, wallTotal := cpuSeconds()-cpuStart, time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	n := float64(len(cpu))
	tail, pct := tailPercentile(cpu)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d units; unit_s_tail is p%.1f; failed_frac %.4g; wall clock: %.3f units/s, p50 %.4f s\n",
		b.c.workload, len(cpu), pct, float64(b.failed)/float64(b.attempted), n/wallTotal, median(wall))
	return map[string]metric{
		"units_per_s":          {n / cpuTotal, "1/s"},
		"unit_s_p50":           {median(cpu), "s"},
		"unit_s_tail":          {tail, "s"},
		"alloc_bytes_per_unit": {float64(after.TotalAlloc-before.TotalAlloc) / n, "bytes"},
		"allocs_per_unit":      {float64(after.Mallocs-before.Mallocs) / n, "count"},
		"max_rss_bytes":        {median(rss), "bytes"},
	}
}

// traced alternates untraced and traced units for budget wall seconds
// and returns the per-layer split, averaged per traced unit.
func (b *bench) traced(u unit, budget time.Duration) map[string]metric {
	tr := newTracer()
	var plain, timed, timedWall []float64
	start := time.Now()
	for len(timed) == 0 || time.Since(start) < budget {
		c0 := cpuSeconds()
		out, err := u.run()
		plain = append(plain, cpuSeconds()-c0)
		b.checkRun(out, err)

		w0, c0 := time.Now(), cpuSeconds()
		out, err = u.traced(tr)
		timed = append(timed, cpuSeconds()-c0)
		timedWall = append(timedWall, time.Since(w0).Seconds())
		b.checkWired(out, err)
	}
	return layerMetrics(tr, timed, timedWall, median(plain))
}

// storeGolden writes the default seed's hand-wired outputs (which carry
// the event counts perf.Run cannot show) after checking that they match
// the program's own.
func storeGolden(wl workload, c config) error {
	if c.seed != defaultSeed {
		return fmt.Errorf("goldens are stored for the default seed %d only", defaultSeed)
	}
	u := wl.prepare(c.seed)
	ref, err := u.run()
	if err != nil {
		return err
	}
	out, err := u.traced(newTracer())
	if err != nil {
		return err
	}
	if err := diff(out.withoutEvents(), ref); err != nil {
		return fmt.Errorf("wired unit differs from the program's: %w", err)
	}
	if err := checkOutputs(out); err != nil {
		return err
	}
	return writeGolden(c.goldenDir, wl.name, out)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the sample at the highest percentile with at
// least ten samples beyond it, and that percentile; with ten samples or
// fewer it returns the maximum (p100).
func tailPercentile(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
