// Command ppprof runs the §2.4 profiler over a synthetic application
// trace (the PIN-instrumentation stand-in), prints the per-window
// statistics on request, and reports the detected progress periods with
// the demand each would declare via pp_begin.
//
// Usage:
//
//	ppprof -app water_nsq -input 8000
//	ppprof -app ocean_cp -input 514 -windows
//	ppprof -app water_nsq -dump trace.rdat        # capture the trace
//	ppprof -load trace.rdat -app water_nsq        # profile a captured trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rdasched/internal/memtrace"
	"rdasched/internal/profiler"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on explicit arguments and streams; it returns the
// exit status: 2 for bad flags, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "water_nsq", "application to profile: water_nsq or ocean_cp")
		input   = fs.Int("input", 0, "input size (molecules or cells); 0 = the app's 1x default")
		seed    = fs.Uint64("seed", 1, "trace seed")
		windows = fs.Bool("windows", false, "also print per-window statistics")
		dump    = fs.String("dump", "", "write the generated trace to this file (RDAT format) and exit")
		load    = fs.String("load", "", "profile a previously dumped trace instead of generating one")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "ppprof:", err)
		return code
	}
	if *input < 0 {
		return fail(2, fmt.Errorf("-input %d is negative", *input))
	}

	var (
		stream memtrace.Stream
		bin    *profiler.Binary
	)
	switch *app {
	case "water_nsq":
		if *input == 0 {
			*input = workloads.WaterNsqInputs[0]
		}
		stream, bin = workloads.WaterNsqTrace(*input, *seed)
	case "ocean_cp":
		if *input == 0 {
			*input = workloads.OceanInputs[0]
		}
		stream, bin = workloads.OceanTrace(*input, *seed)
	default:
		return fail(2, fmt.Errorf("unknown app %q (want water_nsq or ocean_cp)", *app))
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			return fail(1, err)
		}
		n, err := memtrace.WriteStream(f, stream)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %d trace records to %s\n", n, *dump)
		return 0
	}
	var loaded *memtrace.FileStream
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if loaded, err = memtrace.NewFileStream(f); err != nil {
			return fail(1, err)
		}
		stream = loaded
	}

	cfg := workloads.Fig12ProfilerConfig()
	wins, err := profiler.Windows(stream, cfg)
	if err != nil {
		return fail(1, err)
	}
	if loaded != nil && loaded.Err() != nil {
		return fail(1, loaded.Err())
	}
	if *windows {
		t := report.NewTable(fmt.Sprintf("windows (%d instructions each)", cfg.WindowInstr),
			"window", "footprint", "WSS", "reuse", "top JMP site")
		for _, w := range wins {
			t.AddRow(fmt.Sprintf("%d", w.Index), w.Footprint.String(), w.WSS.String(),
				fmt.Sprintf("%.1f", w.ReuseRatio), fmt.Sprintf("%d", w.TopSite))
		}
		fmt.Fprint(stdout, t.String())
		fmt.Fprintln(stdout)
	}

	periods, err := profiler.DetectPeriods(wins, cfg)
	if err != nil {
		return fail(1, err)
	}
	profiler.Annotate(periods, bin)

	t := report.NewTable(
		fmt.Sprintf("progress periods of %s at input %d", *app, *input),
		"period", "windows", "instructions", "loop", "declared demand")
	for i, p := range periods {
		loop := "?"
		if p.LoopID >= 0 {
			loop = bin.Name(p.LoopID)
		}
		t.AddRow(fmt.Sprintf("PP%d", i+1),
			fmt.Sprintf("%d-%d", p.FirstWindow, p.LastWindow),
			fmt.Sprintf("%d", p.Instr()),
			loop,
			p.Demand().String())
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintf(stdout, "\nInsert pp_begin/pp_end around each loop above to let the RDA scheduler gate it.\n")
	return 0
}
