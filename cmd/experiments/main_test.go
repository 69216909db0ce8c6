package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rdasched/internal/experiments"
	"rdasched/internal/workloads"
)

// TestValidateFlags pins the CLI's numeric-range checks: every rejected
// combination must fail loudly (the old behaviour silently ignored
// out-of-range values) and every sane one must pass.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		scale   float64
		jitter  float64
		reps    int
		jobs    int
		listen  string
		pace    string
		wantErr string // substring; empty means valid
	}{
		{"defaults", 1, 0.02, 4, 8, "", "max", ""},
		{"quick-run", 0.05, 0, 1, 1, "", "max", ""},
		{"live-watch", 1, 0.02, 4, 1, ":8080", "10x", ""},
		{"scale-zero", 0, 0.02, 4, 1, "", "max", "-scale"},
		{"scale-negative", -0.5, 0.02, 4, 1, "", "max", "-scale"},
		{"scale-above-one", 2, 0.02, 4, 1, "", "max", "-scale"},
		{"jitter-negative", 1, -0.01, 4, 1, "", "max", "-jitter"},
		{"reps-zero", 1, 0.02, 0, 1, "", "max", "-reps"},
		{"reps-negative", 1, 0.02, -3, 1, "", "max", "-reps"},
		{"jobs-zero", 1, 0.02, 4, 0, "", "max", "-jobs"},
		{"listen-no-port", 1, 0.02, 4, 1, "localhost", "max", "-listen"},
		{"pace-zero", 1, 0.02, 4, 1, "", "0x", "-pace"},
		{"pace-garbage", 1, 0.02, 4, 1, "", "quick", "-pace"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.jitter, tc.reps, tc.jobs, tc.listen, tc.pace)
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

// runCLI runs the command body with args and returns its exit status,
// stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestAliasesResolve: every alias selects the same harness table entry
// as its canonical name, so both print the same output.
func TestAliasesResolve(t *testing.T) {
	aliases := map[string]string{
		"chaos": "e4", "overload": "e5", "domains": "e6",
		"heal": "e7", "observe": "e8", "revive": "e9",
	}
	quick := []string{"-scale", "0.05", "-reps", "1", "-jitter", "0", "-jobs", "1"}
	for alias, canonical := range aliases {
		code, byAlias, stderr := runCLI(t, append([]string{"-experiment", alias}, quick...)...)
		if code != 0 {
			t.Fatalf("-experiment %s: exit %d: %s", alias, code, stderr)
		}
		code, byName, stderr := runCLI(t, append([]string{"-experiment", canonical}, quick...)...)
		if code != 0 {
			t.Fatalf("-experiment %s: exit %d: %s", canonical, code, stderr)
		}
		if byAlias != byName {
			t.Errorf("-experiment %s printed\n%s\n-experiment %s printed\n%s", alias, byAlias, canonical, byName)
		}
	}
	for _, h := range experiments.Harnesses {
		for _, name := range append(append([]string(nil), h.Names...), h.Aliases...) {
			got, err := experiments.Lookup(h.Flag, name)
			if err != nil || got.Names[0] != h.Names[0] {
				t.Errorf("-%s %s selects %v (err %v), want the %s entry", h.Flag, name, got.Names, err, h.Names[0])
			}
		}
	}
}

// TestUnknownSelector: an unknown name is a usage error (exit 2, before
// any profile or server starts) whose message lists exactly the names
// the harness table answers to for that flag.
func TestUnknownSelector(t *testing.T) {
	for _, tc := range []struct{ flag, name string }{{"fig", "6"}, {"experiment", "e10"}} {
		prof := filepath.Join(t.TempDir(), "cpu.out")
		code, stdout, stderr := runCLI(t, "-"+tc.flag, tc.name, "-cpuprofile", prof)
		if code != 2 || stdout != "" {
			t.Fatalf("-%s %s: exit %d, stdout %q; want exit 2 and no output", tc.flag, tc.name, code, stdout)
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("-%s %s left a CPU profile behind", tc.flag, tc.name)
		}
		var want []string
		for _, h := range experiments.Harnesses {
			if h.Flag == tc.flag {
				want = append(append(want, h.Names...), h.Aliases...)
			}
		}
		i, j := strings.Index(stderr, "(have "), strings.LastIndex(stderr, ")")
		if i < 0 || j < i {
			t.Fatalf("-%s %s: error %q lists no names", tc.flag, tc.name, stderr)
		}
		listed := strings.NewReplacer(" (", ", ", ")", "").Replace(stderr[i+len("(have ") : j])
		if got := strings.Split(listed, ", "); !slices.Equal(got, want) {
			t.Errorf("-%s %s lists %q, want %q", tc.flag, tc.name, got, want)
		}
	}
}

// TestTable1Output: -table 1 prints Table 1 exactly as rendered.
func TestTable1Output(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-table", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := experiments.Table1().String() + "\n"; stdout != want {
		t.Errorf("-table 1 printed\n%s\nwant\n%s", stdout, want)
	}
}

// TestSingleFigure: -fig 8 runs the shared Figs 7–10 sweep but prints
// Figure 8 alone.
func TestSingleFigure(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "8", "-scale", "0.05", "-reps", "1", "-jitter", "0", "-jobs", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	opt := experiments.Defaults()
	opt.Scale, opt.Repetitions, opt.JitterFrac, opt.Jobs = 0.05, 1, 0, 1
	rows, err := experiments.RunPolicyComparison(workloads.Table2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := experiments.FigureTable(8, rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := fig8.String() + "\n"; stdout != want {
		t.Errorf("-fig 8 printed\n%s\nwant only\n%s", stdout, want)
	}
}

// TestMetricsHelp pins the -metrics help to every harness that returns
// a registry.
func TestMetricsHelp(t *testing.T) {
	want := "print the telemetry registry (Prometheus text exposition) after harnesses that collect one (waits, e4, e5, e6, e7, e8, e9)"
	if code, _, stderr := runCLI(t, "-h"); code != 0 || !strings.Contains(stderr, want) {
		t.Errorf("-h: exit %d, usage lacks the -metrics help:\n%s", code, stderr)
	}
}

// syncBuffer is a bytes.Buffer safe for the signal relay goroutine and
// the test to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSignalStopsRun: SIGTERM during a watched run requests a stop on
// the introspection server; the run ends with exit 0 and the server is
// closed.
func TestSignalStopsRun(t *testing.T) {
	var stdout bytes.Buffer
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-experiment", "e6", "-scale", "0.05", "-reps", "1", "-jitter", "0",
			"-jobs", "1", "-listen", "127.0.0.1:0", "-pace", "0.05x"}, &stdout, &stderr)
	}()
	const serving = "experiments: introspection server on http://"
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server never started:\n%s", stderr.String())
		}
		if s := stderr.String(); strings.Contains(s, serving) {
			addr = strings.Fields(s[strings.Index(s, serving)+len(serving):])[0]
		}
	}
	// The relay is registered before the server line is printed, so the
	// signal reaches it rather than the default handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM, want 0:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}
	if s := stderr.String(); !strings.Contains(s, "stopping run") || !strings.Contains(s, "run stopped by request") {
		t.Errorf("stderr lacks the stop report:\n%s", s)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("server on %s still accepts connections after the run", addr)
	}
}
