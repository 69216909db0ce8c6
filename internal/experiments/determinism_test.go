package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"rdasched/internal/proc"
	"rdasched/internal/workloads"
)

// The parallel runner's contract: experiment output is bit-identical
// for every worker count, including 1, because each replication derives
// its randomness from the experiment seed and its stable job index —
// never from execution order. This test runs every ported harness at
// Jobs = 1, 4, and GOMAXPROCS with the same seed and asserts the
// rendered report.Table output matches byte for byte.

// determinismOpts uses multiple repetitions WITH jitter so the per-job
// seed derivation is actually exercised: if any replication's random
// stream leaked across jobs, the jittered phase lengths would differ
// between worker counts and the tables would diverge.
func determinismOpts(jobs int) Options {
	o := Defaults()
	o.Repetitions = 2
	o.JitterFrac = 0.02
	o.Scale = 0.1
	o.Seed = 7
	o.Jobs = jobs
	return o
}

func jobCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// assertIdenticalAcrossJobs renders a harness's tables at each worker
// count and compares against the Jobs=1 reference.
func assertIdenticalAcrossJobs(t *testing.T, name string, render func(opt Options) ([]string, error)) {
	t.Helper()
	var ref []string
	for i, jobs := range jobCounts() {
		got, err := render(determinismOpts(jobs))
		if err != nil {
			t.Fatalf("%s at Jobs=%d: %v", name, jobs, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d tables at Jobs=%d vs %d at Jobs=1", name, len(got), jobs, len(ref))
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Errorf("%s table %d differs between Jobs=1 and Jobs=%d:\n--- Jobs=1 ---\n%s\n--- Jobs=%d ---\n%s",
					name, k, jobs, ref[k], jobs, got[k])
			}
		}
	}
}

func TestDeterminismPolicyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ws := []proc.Workload{workloads.BLAS3(), workloads.WaterNsq()}
	assertIdenticalAcrossJobs(t, "policy comparison", func(opt Options) ([]string, error) {
		rows, err := RunPolicyComparison(ws, opt)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, fig := range []int{7, 8, 9, 10} {
			tbl, err := FigureTable(fig, rows)
			if err != nil {
				return nil, err
			}
			out = append(out, tbl.String())
		}
		return out, nil
	})
}

func TestDeterminismFactorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "factor sweep", func(opt Options) ([]string, error) {
		res, err := RunFactorSweep(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

func TestDeterminismGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "granularity", func(opt Options) ([]string, error) {
		res, err := RunGranularity(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

// TestDeterminismWSSPrediction also pins the Jobs=1 Figure 12 table to
// testdata/fig12.golden, so the profiler's measured working sets are
// checked without a further run.
func TestDeterminismWSSPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "WSS prediction", func(opt Options) ([]string, error) {
		res, err := RunWSSPrediction(opt)
		if err != nil {
			return nil, err
		}
		tbl := res.Table()
		if opt.Jobs == 1 {
			checkGolden(t, "fig12", tbl)
		}
		return []string{tbl.String()}, nil
	})
}

func TestDeterminismInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "interference", func(opt Options) ([]string, error) {
		res, err := RunInterference(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

func TestDeterminismCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "calibration", func(opt Options) ([]string, error) {
		res, err := RunCalibration(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

func TestDeterminismExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ext := range []struct {
		name string
		run  func(Options) (*ExtensionResult, error)
	}{
		{"partitioning", RunPartitioning},
		{"reserve", RunReserve},
		{"bandwidth", RunBandwidth},
	} {
		assertIdenticalAcrossJobs(t, ext.name, func(opt Options) ([]string, error) {
			res, err := ext.run(opt)
			if err != nil {
				return nil, err
			}
			return []string{res.Table().String()}, nil
		})
	}
}

// TestDeterminismChaos covers the E4 harness: fault injection draws
// per-replication fault patterns from the seed and job index, so the
// chaos table, too, must be byte-identical for every worker count.
func TestDeterminismChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "chaos", func(opt Options) ([]string, error) {
		res, err := RunChaos(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

// TestDeterminismStdDevAcrossJobs checks the raw aggregates, not just
// the (rounded) rendered tables: mean and standard deviation of every
// metric must be exactly equal across worker counts.
func TestDeterminismStdDevAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ws := []proc.Workload{workloads.WaterNsq()}
	var ref []PolicyRow
	for i, jobs := range jobCounts() {
		rows, err := RunPolicyComparison(ws, determinismOpts(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rows
			continue
		}
		for k := range rows {
			if !reflect.DeepEqual(rows[k], ref[k]) {
				t.Errorf("row %d differs at Jobs=%d:\n%+v\nvs Jobs=1:\n%+v", k, jobs, rows[k], ref[k])
			}
		}
	}
}

// TestDeterminismWaitProfile covers the telemetry-backed harness: both
// the rendered quantile table and the merged registry's Prometheus
// exposition must be byte-identical for every worker count.
func TestDeterminismWaitProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "waits", func(opt Options) ([]string, error) {
		res, err := RunWaitProfile(opt)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := res.Merged.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return []string{res.Table().String(), b.String()}, nil
	})
}

// TestDeterminismOverload covers the E5 harness: governor ladder steps,
// tightened leases, quarantine trips, and aged reservations all ride
// the virtual clock and the scheduler's own decision path, so the
// overload table and its merged registry must be byte-identical for
// every worker count.
func TestDeterminismOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "overload", func(opt Options) ([]string, error) {
		res, err := RunOverload(opt)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := res.Telemetry.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return []string{res.Table().String(), b.String()}, nil
	})
}
