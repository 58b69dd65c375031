package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsExitNonZero covers tcexp's validation exit paths: bad
// experiment ids, unknown flags and misplaced or malformed sampling
// plans must exit non-zero with the error on stderr and a usage hint,
// before any simulation starts.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig99"}, "unknown experiment"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"budget without sampling", []string{"-exp", "fig3", "-budget", "1000000"}, "only apply to -exp sampling"},
		{"sample without sampling", []string{"-exp", "fig3", "-sample", "auto"}, "only apply to -exp sampling"},
		{"malformed sample plan", []string{"-exp", "sampling", "-sample", "50000,oops,5000"}, "period,window,warmup"},
		{"short sample plan", []string{"-exp", "sampling", "-sample", "50000,5000"}, "period,window,warmup"},
		{"seek sample plan", []string{"-exp", "sampling", "-sample", "50000,5000,5000,seek"}, "oracle sources"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("run(%q) = 0, want non-zero", tc.args)
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

// TestListPasses checks the informational path exits 0 on stdout.
func TestListPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list-passes"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "moves") {
		t.Errorf("stdout %q missing pass roster", stdout.String())
	}
}
