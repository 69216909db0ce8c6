// Command experiments regenerates every table and figure of the paper's
// evaluation section, and the extension harnesses, on the simulated
// machine. It is a loop over experiments.Harnesses: -all runs the whole
// table in order, -table/-fig/-ext/-experiment pick one entry.
//
// Usage:
//
//	experiments -all               # everything (takes a few minutes)
//	experiments -table 2           # workload inventory
//	experiments -fig 7             # system energy comparison
//	experiments -fig 13 -scale 0.2 # quick, shape-preserving run
//	experiments -all -markdown     # output for EXPERIMENTS.md
//	experiments -all -jobs 8       # 8 concurrent replications (same output)
//	experiments -experiment chaos  # E4 under its alias
//
// Replications fan out across -jobs workers (default: all cores); the
// tables are bit-identical for every worker count because each
// replication's seed derives from -seed and its job index alone.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"

	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/obsrv"
	"rdasched/internal/perf"
	"rdasched/internal/profutil"
	"rdasched/internal/report"
	"rdasched/internal/version"
)

// validateFlags rejects out-of-range numeric flags with a clear error
// instead of silently clamping or misbehaving downstream.
func validateFlags(scale, jitter float64, reps, jobs int, listen, pace string) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("-scale %g out of range (need 0 < scale <= 1)", scale)
	}
	if jitter < 0 {
		return fmt.Errorf("-jitter %g is negative", jitter)
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d, need at least 1", reps)
	}
	if jobs < 1 {
		return fmt.Errorf("-jobs %d, need at least 1", jobs)
	}
	if listen != "" {
		if _, _, err := net.SplitHostPort(listen); err != nil {
			return fmt.Errorf("-listen %q is not a host:port address: %v", listen, err)
		}
	}
	if _, err := obsrv.ParsePace(pace); err != nil {
		return fmt.Errorf("-pace: %v", err)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on explicit arguments and streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var selectors, withRegistry []string // in table order
	picked := map[string]*string{}
	for _, h := range experiments.Harnesses {
		if picked[h.Flag] == nil {
			selectors = append(selectors, h.Flag)
			picked[h.Flag] = fs.String(h.Flag, "", "run one harness: "+experiments.NamesOf(h.Flag))
		}
		if h.Metrics {
			withRegistry = append(withRegistry, h.Names[0])
		}
	}
	var (
		all      = fs.Bool("all", false, "regenerate everything")
		scale    = fs.Float64("scale", 1, "shrink phase lengths (0 < scale ≤ 1) for quick runs")
		reps     = fs.Int("reps", 4, "repetitions per measurement")
		jitter   = fs.Float64("jitter", 0.02, "run-to-run variation")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent replications (output is identical for any value)")
		markdown = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		traceDir = fs.String("trace-dir", "", "write one Chrome/Perfetto trace-event JSON file per measured cell into this directory")
		obsDir   = fs.String("obs-dir", "", "write one self-contained HTML observability report (blame matrix, critical path, SLO burn rate) per measured cell into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of this process to the file")
		memProf  = fs.String("memprofile", "", "write a heap profile of this process to the file on exit")
		metrics  = fs.Bool("metrics", false, "print the telemetry registry (Prometheus text exposition) after harnesses that collect one ("+strings.Join(withRegistry, ", ")+")")
		governor = fs.Bool("governor", false, "attach the adaptive admission governor to every scheduled cell (e5 configures its own)")
		listen   = fs.String("listen", "", "serve live introspection endpoints (/metrics, /events, /state, /debug/pprof) on this address while the sweep runs, e.g. :8080")
		pace     = fs.String("pace", "max", `wall-clock pacing of virtual time: "max" (unthrottled) or a ratio like "1x" (real time) or "10x"`)
		showVer  = fs.Bool("version", false, "print the build identity and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return code
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	if err := validateFlags(*scale, *jitter, *reps, *jobs, *listen, *pace); err != nil {
		return fail(2, err)
	}

	// Resolve the selection before any profile or server starts.
	harnesses, sel := experiments.Harnesses, ""
	if !*all {
		harnesses = nil
		for _, f := range selectors {
			if sel = *picked[f]; sel != "" {
				h, err := experiments.Lookup(f, sel)
				if err != nil {
					return fail(2, err)
				}
				harnesses = []experiments.Harness{h}
				break
			}
		}
		if harnesses == nil {
			return fail(2, fmt.Errorf("pass -all or one of -%s", strings.Join(selectors, ", -")))
		}
	}

	opt := experiments.Defaults()
	opt.Scale = *scale
	opt.Repetitions = *reps
	opt.JitterFrac = *jitter
	opt.Seed = *seed
	opt.Jobs = *jobs
	opt.TraceDir = *traceDir
	opt.ObsDir = *obsDir
	opt.Pace, _ = obsrv.ParsePace(*pace) // validated above
	if *governor {
		cfg := core.DefaultGovernorConfig()
		opt.Governor = &cfg
	}
	if *listen != "" {
		srv, shutdown, err := obsrv.ServeCLI(*listen, "experiments", stderr)
		if err != nil {
			return fail(1, err)
		}
		defer shutdown()
		opt.Obsrv = srv
	}
	stopProf, err := profutil.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(1, err)
	}
	render := (*report.Table).String
	if *markdown {
		render = (*report.Table).Markdown
	}
	for _, h := range harnesses {
		out, err := h.Run(opt, sel)
		if err == nil {
			if out.Header != "" {
				fmt.Fprintln(stdout, out.Header)
			}
			for _, t := range out.Tables {
				fmt.Fprintln(stdout, render(t))
			}
			if *metrics && out.Registry != nil {
				err = out.Registry.WritePrometheus(stdout)
			}
		}
		if err != nil {
			stopProf() // best effort: flush the CPU profile before exiting
			if errors.Is(err, perf.ErrStopped) {
				return fail(0, err) // a signal-requested stop ends a watched run cleanly
			}
			return fail(1, err)
		}
	}
	if err := stopProf(); err != nil {
		return fail(1, err)
	}
	return 0
}
