package main

import (
	"bytes"
	"strings"
	"testing"

	"tcsim"
)

// TestBadFlagsExitNonZero covers the CLI's validation exit paths: every
// malformed invocation must exit non-zero, print the error to stderr
// (not stdout), and point at -h.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown pass", []string{"-workload", "m88ksim", "-passes", "bogus"}, "unknown pass"},
		{"illegal order", []string{"-workload", "m88ksim", "-passes", "place,moves"}, "illegal pass order"},
		// -opt and -budget are gone: -passes and -insts are the one
		// spelling of each setting.
		{"opt and passes", []string{"-workload", "m88ksim", "-opt", "all", "-passes", "moves"}, "flag provided but not defined: -opt"},
		{"unknown opt", []string{"-workload", "m88ksim", "-opt", "nosuch"}, "flag provided but not defined: -opt"},
		{"budget", []string{"-workload", "m88ksim", "-budget", "5000"}, "flag provided but not defined: -budget"},
		{"huge geometry", []string{"-workload", "m88ksim", "-clusters", "2147483648", "-fus-per-cluster", "2147483648"}, "exceeds the backend bound"},
		// Zero selects a default; a negative count is an error, never a
		// silent run of the default machine.
		{"negative geometry", []string{"-workload", "li", "-insts", "20000", "-clusters", "-3", "-fus-per-cluster", "-2"}, "backend geometry -3 x -2 is negative"},
		{"negative fill latency", []string{"-workload", "li", "-insts", "20000", "-fill-latency", "-7"}, "fill latency -7 is negative"},
		{"negative timeline events", []string{"-workload", "li", "-insts", "2000", "-timeline", "X", "-timeline-events", "-1"}, "timeline capacity -1 events"},
		{"huge timeline events", []string{"-workload", "li", "-insts", "2000", "-timeline", "X", "-timeline-events", "1125899906842624"}, "timeline capacity 1125899906842624 events"},
		{"workload and asm", []string{"-workload", "m88ksim", "-asm", "x.s"}, "not both"},
		{"no input", nil, "pass -workload"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run(%q) = %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.want)
			}
			if !strings.Contains(stderr.String(), "usage") && !strings.Contains(stderr.String(), "Usage") {
				t.Errorf("stderr %q carries no usage hint", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("validation error leaked to stdout: %q", stdout.String())
			}
		})
	}
}

// TestPassesAllRunsCombinedSpec: -passes all runs exactly the paper's
// combined spec, in order, and prints the same statistics as spelling
// that spec out.
func TestPassesAllRunsCombinedSpec(t *testing.T) {
	var all, spelled, stderr bytes.Buffer
	args := []string{"-workload", "m88ksim", "-insts", "5000", "-passes"}
	if code := run(append(args, "all"), &all, &stderr); code != 0 {
		t.Fatalf("-passes all: exit code = %d, stderr %q", code, stderr.String())
	}
	if code := run(append(args, strings.Join(tcsim.DefaultPassSpec(), ",")), &spelled, &stderr); code != 0 {
		t.Fatalf("spelled-out spec: exit code = %d, stderr %q", code, stderr.String())
	}
	if all.String() != spelled.String() {
		t.Errorf("-passes all output differs from the spelled-out default spec:\n%s\nvs\n%s", all.String(), spelled.String())
	}
	var ran []string
	for _, line := range strings.Split(all.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "pass" {
			ran = append(ran, f[1])
		}
	}
	if got, want := strings.Join(ran, ","), "reassoc,moves,scadd,place"; got != want {
		t.Errorf("-passes all ran %q, want %q", got, want)
	}
}

// TestUnknownWorkloadFails covers the runtime (exit 1) path.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the unknown workload", stderr.String())
	}
}

// TestHappyPath sanity-checks that a tiny run still exits 0 and prints
// statistics to stdout.
func TestHappyPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "m88ksim", "-insts", "5000", "-passes", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "IPC") {
		t.Errorf("stdout %q missing the IPC line", stdout.String())
	}
	for _, listArgs := range [][]string{{"-list"}, {"-list-passes"}, {"-list-policies"}} {
		var out, errb bytes.Buffer
		if code := run(listArgs, &out, &errb); code != 0 || out.Len() == 0 {
			t.Errorf("run(%v) = %d with stdout %q", listArgs, code, out.String())
		}
	}
}
