package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv(launcherEnv) != "" {
		os.Exit(launcherMain())
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end and traced on a tiny input and
// holds what the harness emits against what BENCHMARK.json declares. It makes
// no timing assertion.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	l, err := startLauncher()
	if err != nil {
		t.Fatal(err)
	}
	defer l.stop()

	declaredName := func(d declared) string { return d.Name }
	declaredWorkloads := names(spec.Workloads, declaredName)
	if got := names(workloads, func(w workload) string { return w.name }); !slices.Equal(got, declaredWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declaredWorkloads)
	}
	metricName := func(m metric) string { return m.Name }

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{root: root, seed: 1, scale: 0.002, window: 50 * time.Millisecond}
			run := func(trace bool, want []string) *result {
				opt.trace = trace
				res, err := runWorkload(context.Background(), w, opt, l)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, res.Failed, res.Attempted, res.Errors)
				}
				got := names(res.Metrics, metricName)
				if !slices.Equal(got, want) {
					t.Fatalf("trace=%v: emitted metrics\n%v\ndeclared\n%v", trace, got, want)
				}
				for _, m := range res.Metrics {
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
					}
				}
				return res
			}
			first := run(false, names(spec.EndToEnd, declaredName))
			second := run(false, names(spec.EndToEnd, declaredName))
			for _, name := range []string{"comm_bytes_per_str", "model_ms"} {
				a, _ := first.metric(name)
				b, _ := second.metric(name)
				if a.Value != b.Value || a.Value == 0 {
					t.Errorf("%s: %v then %v, want equal and non-zero", name, a.Value, b.Value)
				}
			}
			traced := run(true, names(spec.PerLayer, declaredName))
			if len(traced.Spans) == 0 {
				t.Error("the traced run recorded no spans")
			}
		})
	}
}
