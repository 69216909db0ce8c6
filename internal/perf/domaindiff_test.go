package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/trace"
)

// The single-domain contract: Domains=1 builds a core.DomainSet that is
// pure delegation — no placer, no steal scan, no domain events or
// metrics — so a run through it is byte-identical to the unsharded
// admission monitor: same Metrics JSON, same telemetry expositions,
// same Chrome trace bytes. This differential suite pins that across the
// feature matrix the experiments exercise: plain admission (E1-style),
// faults + lease + admission deadline (E4-style), and the governor
// (E5-style).

// domainDiffConfigs enumerates the compared feature mixes. Every config
// runs instrumented with two jittered repetitions so the comparison
// covers aggregation, not just a single run.
func domainDiffConfigs() []struct {
	name string
	rc   RunConfig
} {
	base := func() RunConfig {
		return RunConfig{
			Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
			Repetitions: 2, JitterFrac: 0.02, Seed: 11,
			Telemetry: true, Trace: true,
		}
	}
	plain := base()

	chaos := base()
	plan := faults.Uniform(0.3, chaos.Machine.LLCCapacity)
	plan.BurstWaves = 2
	chaos.Faults = &plan
	chaos.Lease = sim.FromSeconds(0.004)
	chaos.AdmitDeadline = sim.FromSeconds(0.003)

	governed := base()
	gcfg := core.DefaultGovernorConfig()
	gcfg.Window = sim.FromSeconds(0.001)
	gcfg.DegradeHold = sim.FromSeconds(0.0005)
	gcfg.RecoverHold = sim.FromSeconds(0.0005)
	governed.Governor = &gcfg
	governed.Lease = sim.FromSeconds(0.004)

	compromise := base()
	compromise.Policy = core.NewCompromise()
	compromise.Reserve = chaos.Machine.LLCCapacity / 8

	return []struct {
		name string
		rc   RunConfig
	}{
		{"plain-strict", plain},
		{"faults-lease-deadline", chaos},
		{"governor", governed},
		{"compromise-reserve", compromise},
	}
}

// domainDiffArtifacts runs one config and renders every comparable
// artifact to bytes: the Metrics JSON (mean and stddev), the merged
// registry's JSON and Prometheus expositions, and the Chrome trace.
func domainDiffArtifacts(t *testing.T, rc RunConfig) map[string][]byte {
	t.Helper()
	mean, sd, err := Run(tinyWorkload(10, true), rc)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, m := range map[string]Metrics{"mean": mean, "stddev": sd} {
		b, err := json.MarshalIndent(m, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		out[name+".json"] = b
	}
	if mean.Telemetry == nil {
		t.Fatal("no registry collected")
	}
	var tj, tp, tr bytes.Buffer
	if err := mean.Telemetry.WriteJSON(&tj); err != nil {
		t.Fatal(err)
	}
	if err := mean.Telemetry.WritePrometheus(&tp); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&tr, mean.Spans); err != nil {
		t.Fatal(err)
	}
	out["telemetry.json"] = tj.Bytes()
	out["telemetry.prom"] = tp.Bytes()
	out["trace.json"] = tr.Bytes()
	return out
}

// TestSingleDomainByteIdentical checks Domains=0 and Domains=1 against
// the goldens under testdata/domaindiff/. Those files were rendered by
// the unsharded scheduler itself, before perf routed every gated run
// through a DomainSet, so they pin the single-domain set to the bare
// admission monitor's exact output. Both values must still match them:
// Domains <= 1 is one configuration.
func TestSingleDomainByteIdentical(t *testing.T) {
	for _, cfg := range domainDiffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "domaindiff", cfg.name)
			for _, n := range []int{0, 1} {
				rc := cfg.rc
				rc.Domains = n
				got := domainDiffArtifacts(t, rc)
				if *update {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					for name, b := range got {
						if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					return
				}
				for name, g := range got {
					path := filepath.Join(dir, name)
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (run with -update to create): %v", err)
					}
					if !bytes.Equal(g, want) {
						t.Errorf("Domains=%d: %s drifted from %s:\n--- golden ---\n%s\n--- got ---\n%s",
							n, name, path, want, g)
					}
				}
			}
		})
	}
}

// TestMultiDomainDiverges is the differential suite's sanity check: at
// Domains=2 the same config must NOT be a silent no-op — the placer has
// to make decisions (placements > 0) even if the schedule happens to
// coincide.
func TestMultiDomainDiverges(t *testing.T) {
	rc := domainDiffConfigs()[0].rc
	rc.Domains = 2
	mean, _, err := Run(tinyWorkload(10, true), rc)
	if err != nil {
		t.Fatal(err)
	}
	// 10 procs × 1 declared period each, averaged over the repetitions.
	if mean.DomainPlacements != 10 {
		t.Fatalf("placements = %.0f, want 10 (one per declared period)", mean.DomainPlacements)
	}
	if mean.Telemetry.Counter(core.MetricDomainPlacements).Value() == 0 {
		t.Fatal("rda_domain_placements_total not published at Domains=2")
	}
}

// TestDomainFaultsNeedShards pins the up-front rejection of domain
// faults on a one-domain gate: Domains 0 and 1 fail alike, with the
// same error, before any machine is built; Domains=2 runs.
func TestDomainFaultsNeedShards(t *testing.T) {
	rc := domainDiffConfigs()[0].rc
	rc.Repetitions = 1
	rc.Faults = &faults.Plan{DomainFaults: []faults.DomainFault{
		{Kind: faults.DomainCrash, Domain: 0, At: sim.FromSeconds(0.001)},
	}}
	var msgs []string
	for _, n := range []int{0, 1} {
		rc.Domains = n
		_, err := Sample(tinyWorkload(4, true), rc, 0)
		if err == nil {
			t.Fatalf("Domains=%d: domain faults accepted", n)
		}
		msgs = append(msgs, err.Error())
	}
	if !strings.Contains(msgs[0], "Domains >= 2") || msgs[0] != msgs[1] {
		t.Fatalf("errors for Domains 0 and 1 differ or do not name the bound:\n%s\n%s", msgs[0], msgs[1])
	}
	rc.Domains = 2
	m, err := Sample(tinyWorkload(4, true), rc, 0)
	if err != nil {
		t.Fatalf("Domains=2: %v", err)
	}
	if m.DomainFailures != 1 {
		t.Fatalf("Domains=2: %v domain failures, want the injected crash", m.DomainFailures)
	}
}
