package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdasched/internal/memtrace"
)

// TestRun pins the command's exit statuses and, for a default run, that
// water_nsq's two progress periods are attributed to its interf and
// poteng loops.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		stdout     []string // substrings stdout must hold
		stderrPart string
	}{
		{"negative-input", []string{"-input", "-5"}, 2, nil, "-input -5"},
		{"unknown-app", []string{"-app", "lu"}, 2, nil, `unknown app "lu"`},
		{"bad-flag", []string{"-nope"}, 2, nil, "-nope"},
		{"default-water-nsq", nil, 0, []string{
			"progress periods of water_nsq at input 8000",
			"PP1     1-5      10000000      interf",
			"PP2     7-11     10000000      poteng",
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.code != 0 && stdout.Len() != 0 {
				t.Errorf("failed run printed to stdout:\n%s", stdout.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.stderrPart) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderrPart, stderr.String())
			}
		})
	}
}

// TestRunTruncatedLoad: a -load trace cut short fails with exit 1
// before any table is printed.
func TestRunTruncatedLoad(t *testing.T) {
	refs := make([]memtrace.Ref, 10)
	for i := range refs {
		refs[i] = memtrace.Ref{Instr: uint64(i), Addr: uint64(64 * i)}
	}
	var b bytes.Buffer
	if err := memtrace.WriteTrace(&b, refs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.rdat")
	if err := os.WriteFile(path, b.Bytes()[:b.Len()-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-load", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "truncated") {
		t.Fatalf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
