// Command benchmark is the repository's benchmark: four sort workloads, the
// end-to-end metrics a user of the sorter sees, and a traced run that walks
// the layers from outside. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	bash benchmark/run.sh --workload cc_ms_local --seed 1 --trace 0
//	bash benchmark/run.sh --workload all --trace 1
//	bash benchmark/run.sh --agree
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// contract is BENCHMARK.json: the declared workloads and metrics, and the
// bound by which each end-to-end metric may worsen.
type contract struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []declared `json:"workloads"`
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

// declared is one named entry of the contract; a workload has only a name.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// hostShape tags every result; numbers from different shapes are not compared.
type hostShape struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentShape(root string) hostShape {
	h := hostShape{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// Only a checkout that is itself a git repository is asked for its commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func (h hostShape) comparable(o hostShape) bool {
	return h.HostCPUs == o.HostCPUs && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// result is one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Scale     float64   `json:"scale"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Host      hostShape `json:"host"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	Metrics   []metric  `json:"metrics"`
	Spans     []span    `json:"spans,omitempty"`
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runWorkload sets one workload up, measures it and tears it down. The error
// is the harness's own (set-up failed, the run was interrupted); operations
// that fail are counted in the result.
func runWorkload(ctx context.Context, w workload, opt options, l *launcher) (*result, error) {
	e, err := newEnv(w, opt, l)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := &result{
		Workload: w.name, Seed: opt.seed, Scale: opt.scale, Trace: opt.trace,
		Seconds: opt.window.Seconds(), Host: currentShape(opt.root),
	}
	var ops opCount
	if opt.trace {
		res.Metrics, res.Spans, err = e.traceRun(ctx, &ops)
	} else {
		res.Metrics, err = e.measure(ctx, &ops)
	}
	res.Attempted, res.Failed, res.Errors = ops.attempted, ops.failed, ops.errs
	if err != nil && ops.failed == 0 {
		return nil, err
	}
	return res, nil
}

// print writes the human-readable report and, as the last line, the one JSON
// object the driver reads.
func (r *result) print() {
	kind := "end to end, tracing off"
	if r.Trace {
		kind = "per layer, traced run"
	}
	fmt.Printf("workload %s  seed %d  scale %g  (%s)\n", r.Workload, r.Seed, r.Scale, kind)
	fmt.Printf("host_cpus=%d gomaxprocs=%d go=%s commit=%s\n",
		r.Host.HostCPUs, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	for _, m := range r.Metrics {
		fmt.Printf("  %-28s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.summary())
	}
	fmt.Printf("  %-28s %14d %-10s\n", "ops", r.Attempted, "count")
	fmt.Printf("  %-28s %14d %-10s\n", "failed_ops", r.Failed, "count")
	for _, e := range r.Errors {
		fmt.Println("  FAILED:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(out))
}

// save writes the full result, samples and spans included, under
// .bench_build/results.
func (r *result) save(root string) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Trace {
		kind = "trace"
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, kind)), data, 0o644)
}

func main() {
	if os.Getenv(launcherEnv) != "" {
		os.Exit(launcherMain())
	}
	code, err := realMain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// realMain returns the exit code: 1 when an operation failed or two results
// disagree, 2 when the command line or a comparison cannot be honoured.
func realMain() (int, error) {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the input file's order, the string-to-PE assignment and Config.Seed")
	secs := flag.Float64("seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: layer walk and per-layer metrics")
	scale := flag.Float64("scale", 1, "input size factor; for the smoke test only, recorded numbers are scale 1")
	agree := flag.Bool("agree", false, "run every workload twice and check the two sets agree within the bounds")
	against := flag.String("against", "", "a result file of an earlier end-to-end run of this workload and seed to compare with")
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	// The launcher must exist before this process grows: see launcher.go.
	l, err := startLauncher()
	if err != nil {
		return 1, err
	}
	defer l.stop()

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// run.sh starts the harness in the checkout root. Child processes run in
	// other directories, so the root is kept as an absolute path.
	root, err := os.Getwd()
	if err != nil {
		return 1, err
	}
	spec, err := loadContract(root)
	if err != nil {
		return 1, err
	}
	if *secs <= 0 {
		*secs = float64(spec.RunSeconds)
	}
	opt := options{
		root: root, seed: *seed, scale: *scale, trace: *trace != 0,
		window: time.Duration(*secs * float64(time.Second)),
	}

	if *agree {
		return agreeMain(ctx, spec, opt, l)
	}
	selected := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{w}
	}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(ctx, w, opt, l)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		res.print()
		if res.Failed > 0 {
			code = 1
		}
		// Compared before it is saved: the earlier result may sit where this
		// one is about to be written.
		if *against != "" && !opt.trace {
			ok, err := compareWithSaved(spec, *against, res)
			if err != nil {
				return 2, err
			}
			if !ok {
				code = 1
			}
		}
		if err := res.save(root); err != nil {
			return 1, err
		}
	}
	return code, nil
}
