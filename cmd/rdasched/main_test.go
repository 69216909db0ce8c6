package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/workloads"
)

// TestValidateFlags pins the CLI's numeric-range checks. The -scale
// check in particular regresses a real bug: the CLI used to apply
// scaling only when 0 < scale < 1 and silently run the full workload
// for anything else, so `-scale 10` looked like a very slow quick run.
func TestValidateFlags(t *testing.T) {
	type in struct {
		scale, jitter            float64
		reps, jobs, domains      int
		domFaults                float64
		sloMS, ckptEvery, killAt float64
		listen, pace             string
	}
	valid := in{scale: 1, jitter: 0.02, reps: 4, jobs: 1, pace: "max"}
	cases := []struct {
		name    string
		in      in
		wantErr string // substring; empty means valid
	}{
		{"defaults", valid, ""},
		{"quick-run", in{scale: 0.05, reps: 1, jobs: 4, sloMS: 25, ckptEvery: 0.5, killAt: 1.5, pace: "max"}, ""},
		{"live-watch", in{scale: 1, reps: 1, jobs: 1, listen: ":8080", pace: "10x"}, ""},
		{"listen-any-port", in{scale: 1, reps: 1, jobs: 1, listen: "127.0.0.1:0", pace: "1x"}, ""},
		{"pace-fractional", in{scale: 1, reps: 1, jobs: 1, pace: "0.5x"}, ""},
		{"scale-zero", in{scale: 0, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"scale-negative", in{scale: -1, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"scale-above-one", in{scale: 10, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"jitter-negative", in{scale: 1, jitter: -0.1, reps: 1, jobs: 1, pace: "max"}, "-jitter"},
		{"reps-zero", in{scale: 1, reps: 0, jobs: 1, pace: "max"}, "-reps"},
		{"jobs-zero", in{scale: 1, reps: 1, jobs: 0, pace: "max"}, "-jobs"},
		{"sharded-with-faults", in{scale: 1, reps: 1, jobs: 1, domains: 2, domFaults: 0.5, pace: "max"}, ""},
		{"domains-negative", in{scale: 1, reps: 1, jobs: 1, domains: -3, pace: "max"}, "-domains"},
		{"domain-faults-negative", in{scale: 1, reps: 1, jobs: 1, domains: 2, domFaults: -1, pace: "max"}, "-domain-faults"},
		{"slo-negative", in{scale: 1, reps: 1, jobs: 1, sloMS: -50, pace: "max"}, "-slo-ms"},
		{"checkpoint-every-negative", in{scale: 1, reps: 1, jobs: 1, ckptEvery: -1, pace: "max"}, "-checkpoint-every"},
		{"kill-at-negative", in{scale: 1, reps: 1, jobs: 1, killAt: -2, pace: "max"}, "-kill-at"},
		{"listen-no-port", in{scale: 1, reps: 1, jobs: 1, listen: "localhost", pace: "max"}, "-listen"},
		{"listen-garbage", in{scale: 1, reps: 1, jobs: 1, listen: "http://:8080", pace: "max"}, "-listen"},
		{"pace-zero", in{scale: 1, reps: 1, jobs: 1, pace: "0x"}, "-pace"},
		{"pace-negative", in{scale: 1, reps: 1, jobs: 1, pace: "-2x"}, "-pace"},
		{"pace-garbage", in{scale: 1, reps: 1, jobs: 1, pace: "fast"}, "-pace"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.in.scale, tc.in.jitter, tc.in.reps, tc.in.jobs,
				tc.in.domains, tc.in.domFaults, tc.in.sloMS, tc.in.ckptEvery, tc.in.killAt, tc.in.listen, tc.in.pace)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// TestTimeline drives the -timeline mode end to end on a reduced Table 2
// workload: the busy-cores bar chart renders, and a gated run prints the
// decision ring it subscribed (full at 64 events, with the earlier ones
// counted as dropped). The run goes through perf.Start, so the run flags
// apply: two Strict domains put placement decisions in the ring.
func TestTimeline(t *testing.T) {
	w, err := workloads.ByName("water_nsq")
	if err != nil {
		t.Fatal(err)
	}
	w = proc.ScaleInstr(w, 0.05)
	cfg := machine.DefaultConfig()
	for _, tc := range []struct {
		name      string
		rc        perf.RunConfig
		wantPlace bool
	}{
		{"strict", perf.RunConfig{Machine: cfg, Policy: core.StrictPolicy{}, Seed: 1}, false},
		{"strict-2-domains", perf.RunConfig{Machine: cfg, Policy: core.StrictPolicy{}, Seed: 1, Domains: 2}, true},
	} {
		var out bytes.Buffer
		if err := runTimeline(&out, w, tc.rc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := out.String()
		if !strings.Contains(got, "busy cores over time (of ") {
			t.Fatalf("%s: no busy-cores chart in timeline output:\n%s", tc.name, got)
		}
		var n, dropped int
		i := strings.Index(got, "\nlast ")
		if i < 0 {
			t.Fatalf("%s: no decision block in timeline output:\n%s", tc.name, got)
		}
		if _, err := fmt.Sscanf(got[i+1:], "last %d scheduler decisions (%d earlier dropped):", &n, &dropped); err != nil {
			t.Fatalf("%s: decision block header: %v\n%s", tc.name, err, got[i:])
		}
		if n != 64 || dropped == 0 {
			t.Fatalf("%s: decision block shows %d events, %d dropped; want a full 64-event ring with drops", tc.name, n, dropped)
		}
		if lines := strings.Count(got[i:], "\n   "); lines != n {
			t.Fatalf("%s: decision block lists %d events, header says %d", tc.name, lines, n)
		}
		if place := strings.Contains(got[i:], " place "); place != tc.wantPlace {
			t.Fatalf("%s: place decision in the ring = %v, want %v:\n%s", tc.name, place, tc.wantPlace, got[i:])
		}
	}

	// The uninstrumented baseline has no scheduler, so no decision block.
	var out bytes.Buffer
	if err := runTimeline(&out, w, perf.RunConfig{Machine: cfg, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "scheduler decisions") {
		t.Fatalf("default-policy timeline printed a decision block:\n%s", out.String())
	}
}
