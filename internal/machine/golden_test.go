package machine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// The machine goldens pin every float a run produces, bit for bit, on
// small workloads that between them reach each branch of the per-event
// model: weighted water-filling, barriers, crashes, cache partitions,
// gate denials with wake latency, refill and a leaked pp_end, and the
// bandwidth roofline. Any change to the order of a float sum shows up
// here. Regenerate with:
//
//	go test ./internal/machine -run TestMachineGoldens -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

// toggleGate is a deterministic test gate. While a declared period is
// active it denies every other EnterPhase and queues the denied thread;
// each ExitPhase releases the oldest waiter. When release > 0 every
// denied thread is also released by a timer after that delay, so
// periods that never exit (crashes, leaked ends) cannot stall the run.
type toggleGate struct {
	m       *Machine
	release sim.Duration
	active  int
	flip    bool
	waiters []*Thread
}

func (g *toggleGate) EnterPhase(t *Thread, _ int, _ *proc.Phase) bool {
	if g.active > 0 {
		g.flip = !g.flip
		if g.flip {
			g.waiters = append(g.waiters, t)
			if g.release > 0 {
				g.m.Engine().After(g.release, func() { g.releaseThread(t) })
			}
			return false
		}
	}
	g.active++
	return true
}

func (g *toggleGate) ExitPhase(*Thread, int, *proc.Phase) {
	g.active--
	if len(g.waiters) > 0 {
		g.releaseThread(g.waiters[0])
	}
}

// releaseThread admits t if it is still queued.
func (g *toggleGate) releaseThread(t *Thread) {
	for i, w := range g.waiters {
		if w == t {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			g.active++
			g.m.Unblock(t)
			return
		}
	}
}

// newTestMachine builds a machine, gated by a toggleGate with the given
// release delay when gated is set.
func newTestMachine(cfg Config, gated bool, release sim.Duration) *Machine {
	if !gated {
		return New(cfg, nil)
	}
	g := &toggleGate{release: release}
	g.m = New(cfg, g)
	return g.m
}

// goldenCase is one pinned workload.
type goldenCase struct {
	name  string
	cfg   func(*Config)
	gated bool
	// release is the toggle gate's timer release delay (0: exits only).
	release sim.Duration
	procs   []proc.Spec
}

func streamPhase(instr float64) proc.Phase {
	return proc.Phase{
		Name: "stream", Instr: instr, WSS: pp.MB(24), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.5, PrivateHitFrac: 0.2, StreamFrac: 1, FlopsPerInstr: 0.25,
	}
}

func goldenCases() []goldenCase {
	barrier := func(instr float64, wss pp.Bytes) proc.Phase {
		ph := simplePhase(instr, wss, pp.ReuseMed)
		ph.BarrierAfter = true
		return ph
	}
	declared := func(instr float64, wss pp.Bytes, r pp.Reuse) proc.Phase {
		ph := simplePhase(instr, wss, r)
		ph.Declared = true
		return ph
	}
	crash := simplePhase(3e7, pp.MB(3), pp.ReuseHigh)
	crash.CrashFrac = 0.4
	part := simplePhase(5e7, pp.MB(20), pp.ReuseHigh)
	part.CachePartition = pp.MB(2)
	partDecl := declared(2e7, pp.MB(12), pp.ReuseMed)
	partDecl.CachePartition = pp.MB(4)

	var weighted []proc.Spec
	for i, w := range []float64{10, 5, 0, 1, 1, 2, 0, 1} {
		weighted = append(weighted, proc.Spec{
			Name: fmt.Sprintf("w%d", i), Threads: 1 + i%2, Weight: w,
			Program: proc.Program{
				simplePhase(2e7+float64(i)*3.1e6, pp.MB(float64(1+i%4)), pp.Reuse(i%3)),
				simplePhase(1e7+float64(i)*1.7e6, pp.MB(2), pp.ReuseHigh),
			},
		})
	}

	var toggled []proc.Spec
	for i := 0; i < 6; i++ {
		toggled = append(toggled, proc.Spec{
			Name: fmt.Sprintf("g%d", i), Threads: 1 + i%3,
			Program: proc.Program{
				declared(1e7+float64(i)*2.3e6, pp.MB(float64(2+i)), pp.Reuse(i%3)),
				simplePhase(4e6+float64(i)*1e6, pp.MB(1), pp.ReuseLow),
				declared(8e6+float64(i)*1.1e6, pp.MB(3), pp.ReuseHigh),
			},
		})
	}
	// One period never sees its pp_end: the gate's timer frees its waiters.
	toggled[5].Program[2].LeakEnd = true

	var bw []proc.Spec
	for i := 0; i < 14; i++ {
		ph := streamPhase(2e7 + float64(i)*1.3e6)
		if i%4 == 3 {
			ph = simplePhase(3e7+float64(i)*1e6, pp.MB(1), pp.ReuseHigh)
		}
		bw = append(bw, singleProc(fmt.Sprintf("s%d", i), ph))
	}

	return []goldenCase{
		{
			name:  "weighted",
			cfg:   func(c *Config) { c.Cores = 4 },
			procs: weighted,
		},
		{
			name: "barrier_crash",
			cfg: func(c *Config) {
				c.Cores = 6
				c.WakeLatency = 0
			},
			gated: true,
			procs: []proc.Spec{
				{Name: "bar4", Threads: 4, Program: proc.Program{
					declared(6e6, pp.MB(2), pp.ReuseHigh),
					barrier(2e7, pp.MB(6)), barrier(1.5e7, pp.MB(4)),
					simplePhase(5e6, pp.MB(1), pp.ReuseLow),
				}},
				{Name: "crash3", Threads: 3, Program: proc.Program{
					barrier(1e7, pp.MB(2)), crash, simplePhase(1e7, pp.MB(1), pp.ReuseLow),
				}},
				{Name: "bar2", Threads: 2, Program: proc.Program{
					barrier(1.2e7, pp.MB(5)), declared(9e6, pp.MB(3), pp.ReuseMed),
				}},
				singleProc("solo", simplePhase(4e7, pp.MB(8), pp.ReuseHigh)),
			},
		},
		{
			name: "partition",
			cfg:  func(c *Config) { c.Cores = 8 },
			procs: []proc.Spec{
				singleProc("fenced", part, simplePhase(1e7, pp.MB(4), pp.ReuseMed)),
				{Name: "mt", Threads: 3, Program: proc.Program{partDecl, simplePhase(1.5e7, pp.MB(6), pp.ReuseHigh)}},
				singleProc("hi", simplePhase(4e7, pp.MB(9), pp.ReuseHigh)),
				singleProc("lo", streamPhase(2.5e7)),
			},
		},
		{
			name: "toggle_wake",
			cfg: func(c *Config) {
				c.Cores = 4
				c.WakeLatency = 45 * sim.Microsecond
				c.WakeRefillFactor = 0.7
				c.OverheadAPIInstr = 2400
				c.OverheadKernelInstr = 245_000
			},
			gated:   true,
			release: 3 * sim.Millisecond,
			procs:   toggled,
		},
		{
			name:  "bandwidth",
			cfg:   func(c *Config) { c.Cores = 12 },
			procs: bw,
		},
	}
}

// runGoldenCase runs c with a 1 ms timeline and returns the result and
// the number of engine events fired.
func runGoldenCase(t *testing.T, c goldenCase) (*Result, uint64) {
	t.Helper()
	cfg := testConfig()
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	m := newTestMachine(cfg, c.gated, c.release)
	m.EnableTimeline(sim.Millisecond)
	for _, s := range c.procs {
		if _, err := m.AddProcess(s); err != nil {
			t.Fatal(err)
		}
	}
	res := mustRun(t, m)
	return res, m.Engine().Fired()
}

func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// renderGolden prints every Result float as a hex float, so the file
// differs on any bit of any value.
func renderGolden(res *Result, events uint64) string {
	var b strings.Builder
	c := res.Counters
	fmt.Fprintf(&b, "events %d\n", events)
	fmt.Fprintf(&b, "elapsed_ps %d\n", int64(res.Elapsed))
	fmt.Fprintf(&b, "instructions %s\nflops %s\nllc_accesses %s\ndram_accesses %s\n",
		hexf(c.Instructions), hexf(c.Flops), hexf(c.LLCAccesses), hexf(c.DRAMAccesses))
	fmt.Fprintf(&b, "pp_blocks %d\nwakeups %d\nbarriers %d\ncrashes %d\nleaked_ends %d\n",
		c.PPBlocks, c.Wakeups, c.Barriers, c.Crashes, c.LeakedEnds)
	fmt.Fprintf(&b, "package_j %s\ndram_j %s\nsystem_j %s\navg_busy_cores %s\n",
		hexf(res.PackageJ), hexf(res.DRAMJ), hexf(res.SystemJ), hexf(res.AvgBusyCores))
	for i, p := range res.Procs {
		fmt.Fprintf(&b, "proc %d %s finish_ps %d instructions %s flops %s\n",
			i, p.Name, int64(p.Finish), hexf(p.Instructions), hexf(p.Flops))
	}
	for _, s := range res.Timeline {
		fmt.Fprintf(&b, "sample %d busy %s pressure %s\n", int64(s.At), hexf(s.BusyCores), hexf(s.PressureBytes))
	}
	return b.String()
}

func TestMachineGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			res, events := runGoldenCase(t, c)
			got := renderGolden(res, events)
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
					c.name, path, got, want)
			}
		})
	}
}
