package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rdasched/internal/report"
	"rdasched/internal/telemetry"
	"rdasched/internal/version"
	"rdasched/internal/workloads"
)

// Harness is one entry of the harness table cmd/experiments walks.
type Harness struct {
	Flag    string   // the selecting flag: table, fig, ext or experiment
	Names   []string // values of Flag that select it (several only for Figs 7–10)
	Aliases []string // other spellings of Names[0]: e4 is also chaos
	Metrics bool     // Run returns a telemetry registry
	// Run renders the harness. sel is the name it was selected by, or ""
	// under -all; only the Figs 7–10 sweep reads it, to print Figure sel.
	Run func(opt Options, sel string) (Output, error)
}

// Output is what one harness prints, in order.
type Output struct {
	Header   string // a line before the tables: E9's build identity
	Tables   []*report.Table
	Registry *telemetry.Registry
}

// Harnesses is the harness table, the only place a harness is named:
// cmd/experiments generates its selector flags and help, unknown-name
// errors and -metrics note from it, and -all runs it in this order.
var Harnesses = []Harness{
	static("1", Table1),
	static("2", Table2Report),
	{Flag: "fig", Names: []string{"7", "8", "9", "10"}, Run: runPolicyFigures},
	entry("fig", "11", RunGranularity, nil),
	entry("fig", "12", RunWSSPrediction, nil),
	entry("fig", "13", RunInterference, nil),
	entry("ext", "partitioning", RunPartitioning, nil),
	entry("ext", "reserve", RunReserve, nil),
	entry("ext", "bandwidth", RunBandwidth, nil),
	entry("ext", "calibration", RunCalibration, nil),
	entry("ext", "factor", RunFactorSweep, nil),
	entry("ext", "waits", RunWaitProfile, func(r *WaitProfileResult) *telemetry.Registry { return r.Merged }),
	entry("experiment", "e4", RunChaos, func(r *ChaosResult) *telemetry.Registry { return r.Telemetry }, "chaos"),
	entry("experiment", "e5", RunOverload, func(r *OverloadResult) *telemetry.Registry { return r.Telemetry }, "overload"),
	entry("experiment", "e6", RunDomains, func(r *DomainResult) *telemetry.Registry { return r.Telemetry }, "domains"),
	entry("experiment", "e7", RunHeal, func(r *HealResult) *telemetry.Registry { return r.Telemetry }, "heal"),
	entry("experiment", "e8", RunObserve, func(r *ObserveResult) *telemetry.Registry { return r.Telemetry }, "observe"),
	withBuildLine(entry("experiment", "e9", RunRevive, func(r *ReviveResult) *telemetry.Registry { return r.Telemetry }, "revive")),
}

// entry wraps a single-table Run* function; reg, when non-nil, picks
// the result's registry.
func entry[R interface{ Table() *report.Table }](flag, name string, run func(Options) (R, error), reg func(R) *telemetry.Registry, aliases ...string) Harness {
	return Harness{Flag: flag, Names: []string{name}, Aliases: aliases, Metrics: reg != nil,
		Run: func(opt Options, _ string) (Output, error) {
			res, err := run(opt)
			if err != nil {
				return Output{}, err
			}
			out := Output{Tables: []*report.Table{res.Table()}}
			if reg != nil {
				out.Registry = reg(res)
			}
			return out, nil
		}}
}

// withBuildLine heads h's output with the build identity.
func withBuildLine(h Harness) Harness {
	run := h.Run
	h.Run = func(opt Options, sel string) (Output, error) {
		out, err := run(opt, sel)
		out.Header = version.String()
		return out, err
	}
	return h
}

// static wraps a table rendered without simulating.
func static(name string, table func() *report.Table) Harness {
	return Harness{Flag: "table", Names: []string{name}, Run: func(Options, string) (Output, error) {
		return Output{Tables: []*report.Table{table()}}, nil
	}}
}

// runPolicyFigures renders Figures 7–10 from one RunPolicyComparison
// sweep: all four under -all, Figure sel otherwise.
func runPolicyFigures(opt Options, sel string) (Output, error) {
	rows, err := RunPolicyComparison(workloads.Table2(), opt)
	var out Output
	for f := 7; f <= 10 && err == nil; f++ {
		if sel == "" || sel == strconv.Itoa(f) {
			var t *report.Table
			t, err = FigureTable(f, rows)
			out.Tables = append(out.Tables, t)
		}
	}
	return out, err
}

// Lookup returns the harness that -flag name selects.
func Lookup(flag, name string) (Harness, error) {
	for _, h := range Harnesses {
		if h.Flag == flag && (slices.Contains(h.Names, name) || slices.Contains(h.Aliases, name)) {
			return h, nil
		}
	}
	return Harness{}, fmt.Errorf("unknown -%s %q (have %s)", flag, name, NamesOf(flag))
}

// NamesOf lists what -flag answers to: "e4 (chaos), e5 (overload), ...".
func NamesOf(flag string) string {
	var out []string
	for _, h := range Harnesses {
		if h.Flag == flag {
			s := strings.Join(h.Names, ", ")
			if len(h.Aliases) > 0 {
				s += " (" + strings.Join(h.Aliases, ", ") + ")"
			}
			out = append(out, s)
		}
	}
	return strings.Join(out, ", ")
}
