package main

import (
	"os"
	"strings"
	"testing"
)

// TestMainRuns runs the example end to end and checks that it printed the
// sorted fragments and the statistics.
func TestMainRuns(t *testing.T) {
	out := captureStdout(t, main)
	for _, want := range []string{"PE 0:", "algae    lcp=0", "alps     lcp=3", "communication:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
