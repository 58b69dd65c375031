package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: flag and argument errors exit 2 before the
// daemon listens, with the reason on stderr and nothing on stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-log-level", "shout"}, "unknown -log-level"},
		{[]string{"-log-format", "xml"}, "unknown -log-format"},
		{[]string{"-selfcheck"}, "flag provided but not defined"},
	} {
		var out, errb strings.Builder
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%q exited %d, want 2", tc.args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q wrote to stdout: %q", tc.args, out.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%q stderr = %q, want it to mention %q", tc.args, errb.String(), tc.want)
		}
	}
}
