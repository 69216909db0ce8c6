package profiler_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/profiler"
	"rdasched/internal/workloads"
)

// The windows golden pins every WindowStats and every detected Period of
// the Figure 12 traces, floats as hex, so a change to the entry table
// that moves any bit of any window shows up here. Regenerate with
//
//	go test ./internal/profiler -run TestWindowsGolden -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func TestWindowsGolden(t *testing.T) {
	cases := []struct {
		app   string
		input int
		trace func(int, uint64) (*memtrace.PhasedStream, *profiler.Binary)
	}{
		{"water_nsq", workloads.WaterNsqInputs[0], workloads.WaterNsqTrace},
		{"water_nsq", workloads.WaterNsqInputs[3], workloads.WaterNsqTrace},
		{"ocean_cp", workloads.OceanInputs[0], workloads.OceanTrace},
		{"ocean_cp", workloads.OceanInputs[3], workloads.OceanTrace},
	}
	cfg := workloads.Fig12ProfilerConfig()
	var b strings.Builder
	for _, c := range cases {
		s, bin := c.trace(c.input, 1)
		wins, err := profiler.Windows(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		periods, err := profiler.DetectPeriods(wins, cfg)
		if err != nil {
			t.Fatal(err)
		}
		profiler.Annotate(periods, bin)
		fmt.Fprintf(&b, "trace %s input %d seed 1\n", c.app, c.input)
		for _, w := range wins {
			fmt.Fprintf(&b, "window %d instr %d-%d footprint %d wss %d reuse %s refs %d site %d\n",
				w.Index, w.StartInstr, w.EndInstr, int64(w.Footprint), int64(w.WSS),
				hexf(w.ReuseRatio), w.Refs, w.TopSite)
		}
		for _, p := range periods {
			fmt.Fprintf(&b, "period windows %d-%d instr %d-%d wss %d reuse %s class %v site %d loop %d\n",
				p.FirstWindow, p.LastWindow, p.StartInstr, p.EndInstr, int64(p.WSS),
				hexf(p.ReuseRatio), p.Reuse, p.Site, p.LoopID)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "windows.golden")
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
		t.Errorf("windows drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// BenchmarkWindowsFig12 windows one Figure 12 profiling job's trace
// (water_nsq at 8000 molecules, seed 1) and reports memory references
// windowed per second. The time includes generating the trace, which
// Windows consumes as a stream.
func BenchmarkWindowsFig12(b *testing.B) {
	cfg := workloads.Fig12ProfilerConfig()
	b.ReportAllocs()
	var refs uint64
	for i := 0; i < b.N; i++ {
		s, _ := workloads.WaterNsqTrace(workloads.WaterNsqInputs[0], 1)
		wins, err := profiler.Windows(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range wins {
			refs += w.Refs
		}
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}
