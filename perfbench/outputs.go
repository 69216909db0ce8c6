package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"rdasched/internal/perf"
	"rdasched/internal/profiler"
	"rdasched/internal/telemetry/blame"
)

// outputs are a unit's simulated results. A host-time change must leave
// them bit-identical, so the benchmark compares them exactly; none of
// them is a benchmark metric.
type outputs struct {
	Cells   []cellOut         `json:"cells,omitempty"`
	Periods []profiler.Period `json:"periods,omitempty"`

	// blame is gate-churn's wait-attribution report, checked for
	// conservation but not compared.
	blame *blame.Report
}

// cellOut is one simulated configuration's outputs (a cell's mean over
// its repetitions). Events is the engine's fired-event count, which
// only the hand-wired path can read; it is zero from perf.Run.
type cellOut struct {
	Label        string  `json:"label"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	SystemJ      float64 `json:"system_j"`
	DRAMJ        float64 `json:"dram_j"`
	GFLOPS       float64 `json:"gflops"`
	DRAMAccesses float64 `json:"dram_accesses"`
	Blocks       uint64  `json:"blocks"`
	Wakeups      uint64  `json:"wakeups"`
	Events       uint64  `json:"events"`
}

func cellOf(label string, m perf.Metrics, events uint64) cellOut {
	return cellOut{
		Label:        label,
		ElapsedSec:   m.ElapsedSec,
		SystemJ:      m.SystemJ,
		DRAMJ:        m.DRAMJ,
		GFLOPS:       m.GFLOPS,
		DRAMAccesses: m.DRAMAccesses,
		Blocks:       m.Blocks,
		Wakeups:      m.Wakeups,
		Events:       events,
	}
}

// withoutEvents returns o with every cell's event count cleared, the
// form perf.Run's outputs take.
func (o outputs) withoutEvents() outputs {
	c := o
	c.Cells = append([]cellOut(nil), o.Cells...)
	for i := range c.Cells {
		c.Cells[i].Events = 0
	}
	return c
}

// diff returns nil when a and b are bit-identical, else the first
// difference. Floats compare by bit pattern.
func diff(a, b outputs) error {
	if len(a.Cells) != len(b.Cells) {
		return fmt.Errorf("%d cells, want %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		fx := [...]float64{x.ElapsedSec, x.SystemJ, x.DRAMJ, x.GFLOPS, x.DRAMAccesses}
		fy := [...]float64{y.ElapsedSec, y.SystemJ, y.DRAMJ, y.GFLOPS, y.DRAMAccesses}
		same := x.Label == y.Label && x.Blocks == y.Blocks && x.Wakeups == y.Wakeups && x.Events == y.Events
		for k := range fx {
			same = same && math.Float64bits(fx[k]) == math.Float64bits(fy[k])
		}
		if !same {
			return fmt.Errorf("cell %d: got %+v, want %+v", i, x, y)
		}
	}
	if !reflect.DeepEqual(a.Periods, b.Periods) {
		return fmt.Errorf("periods: got %+v, want %+v", a.Periods, b.Periods)
	}
	return nil
}

// checkOutputs applies the seed-independent checks a unit's outputs
// must pass on their own.
func checkOutputs(o outputs) error {
	if len(o.Cells) == 0 && len(o.Periods) == 0 {
		return errors.New("unit produced no outputs")
	}
	if o.blame != nil {
		return o.blame.Check()
	}
	return nil
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

// readGolden loads a workload's stored default-seed outputs.
func readGolden(dir, workload string) (outputs, error) {
	var o outputs
	b, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return o, err
	}
	if err := json.Unmarshal(b, &o); err != nil {
		return o, fmt.Errorf("golden %s: %w", workload, err)
	}
	return o, nil
}

// writeGolden stores outputs as a workload's default-seed golden.
// encoding/json writes the shortest decimal that parses back to the
// same float64, so a stored golden round-trips bit for bit.
func writeGolden(dir, workload string, o outputs) error {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, workload), append(b, '\n'), 0o644)
}
