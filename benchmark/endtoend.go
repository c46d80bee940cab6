package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"dss/stringsort"
)

const (
	// Set-up is repeated, so that setup_s is a median and not one cold build:
	// for setupBudget, but at least minSetups and at most maxSetups times.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
	warmups     = 2 // untimed sorts: the first call in a process is 2-6x slower
	cliWarmups  = 1 // untimed dss-sort run: the first start of a fresh binary is 1.5-3x slower
	minSorts    = 3 // timed in-process sorts, however short the window
	minCLIRuns  = 3
	// maxFailures ends a loop whose operation cannot succeed at all, instead
	// of letting it spin until its sample count is reached.
	maxFailures = 3
	// sortShare is the part of the window spent on in-process sorts; the rest
	// goes to cold CLI processes.
	sortShare = 0.5
)

// options are the settings of one run.
type options struct {
	root   string // checkout root: holds BENCHMARK.json and benchmark/
	seed   int64
	scale  float64
	window time.Duration // how long the run measures
	trace  bool
}

// env is one workload set up on disk and in memory.
type env struct {
	w        workload
	opt      options
	launcher *launcher
	tmp      string // everything the run writes lives here and is removed on every exit path
	bin      string // dss-sort, built in set-up
	inFile   string
	lines    [][]byte   // the instance in file order
	inputs   [][][]byte // lines dealt to the PEs
	want     digest
}

func newEnv(w workload, opt options, l *launcher) (*env, error) {
	base := filepath.Join(opt.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	return &env{
		w: w, opt: opt, launcher: l, tmp: tmp,
		bin:    filepath.Join(tmp, "dss-sort"),
		inFile: filepath.Join(tmp, "input.txt"),
	}, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// setup builds dss-sort, generates the input and writes the input file, and
// returns how long that took.
func (e *env) setup(ctx context.Context) (time.Duration, error) {
	e.lines, e.inputs = nil, nil // one instance resident at a time
	runtime.GC()
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "dss/cmd/dss-sort")
	build.Dir = filepath.Join(e.opt.root, "benchmark")
	if out, err := build.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("build dss-sort: %w\n%s", err, out)
	}
	lines := e.w.generate(e.opt.scale, e.opt.seed)
	if err := writeLines(e.inFile, lines); err != nil {
		return 0, err
	}
	d := time.Since(start)
	e.lines = lines
	return d, nil
}

// load prepares what the checker and the in-process sorts need from the
// instance the last setup left behind.
func (e *env) load() {
	e.inputs = distribute(e.lines)
	e.want = digestOf(e.lines)
}

// freshSpillDir recreates the run's spill directory, so no iteration starts
// on another's page or run files.
func (e *env) freshSpillDir() (string, error) {
	dir := filepath.Join(e.tmp, "spill")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// sortSample is what one in-process sort cost.
type sortSample struct {
	wall    time.Duration
	alloc   uint64 // bytes allocated during the call
	mallocs uint64
	stats   stringsort.Stats
}

// sortOp runs stringsort.Sort once on the workload and checks its output
// outside the timed region. tracePath != "" turns the program's tracing on.
func (e *env) sortOp(tracePath string) (sortSample, error) {
	dir, err := e.freshSpillDir()
	if err != nil {
		return sortSample{}, err
	}
	defer os.RemoveAll(dir)
	cfg := e.w.config(e.opt.seed, dir)
	cfg.Trace = tracePath

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := stringsort.Sort(e.inputs, cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return sortSample{}, err
	}
	s := sortSample{
		wall:    wall,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		stats:   res.Stats,
	}
	return s, checkResult(res, e.inputs, e.want)
}

// cliOp runs one cold dss-sort process on the input file and checks the file
// it writes.
func (e *env) cliOp() (wall time.Duration, rssMB float64, err error) {
	dir, err := e.freshSpillDir()
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(e.tmp, "output.txt")
	defer os.Remove(out)
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	wall, rssKiB, err := e.launcher.run(e.bin, e.w.cliArgs(e.opt.seed, e.inFile, out, dir), env)
	if err != nil {
		return 0, 0, err
	}
	return wall, float64(rssKiB) * 1024 / 1e6, checkSortedFile(out, e.want)
}

// measure is the end-to-end run: tracing off, a closed loop of one client
// that issues the next sort when the previous one is checked.
func (e *env) measure(ctx context.Context, ops *opCount) ([]metric, error) {
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget); {
		d, err := e.setup(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	e.load()

	start := time.Now()
	sortDeadline := start.Add(time.Duration(float64(e.opt.window) * sortShare))
	cliDeadline := start.Add(e.opt.window)

	var wall, alloc, mallocs []float64
	var exact *stringsort.Stats
	for i := 0; ops.failed < maxFailures; i++ {
		timed := i >= warmups
		if timed && len(wall) >= minSorts && time.Now().After(sortDeadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := e.sortOp("")
		if err == nil {
			if exact == nil {
				exact = &s.stats
			} else if s.stats.BytesPerString != exact.BytesPerString || s.stats.ModelTime != exact.ModelTime {
				err = fmt.Errorf("exact metrics changed between iterations: %v B/str and %v model-s, were %v and %v",
					s.stats.BytesPerString, s.stats.ModelTime, exact.BytesPerString, exact.ModelTime)
			}
		}
		if ops.record("sort", err) && timed {
			wall = append(wall, s.wall.Seconds())
			alloc = append(alloc, float64(s.alloc)/1e6)
			mallocs = append(mallocs, float64(s.mallocs)/1e3)
		}
	}

	// Hand the sorts' garbage back now, so the runtime does not trickle it to
	// the OS in the background while the child processes are timed.
	debug.FreeOSMemory()
	var cliWall, cliRSS []float64
	cliRuns := 0
	for ops.failed < maxFailures && (len(cliWall) < minCLIRuns || time.Now().Before(cliDeadline)) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, rss, err := e.cliOp()
		cliRuns++
		if ops.record("dss-sort", err) && cliRuns > cliWarmups {
			cliWall = append(cliWall, d.Seconds())
			cliRSS = append(cliRSS, rss)
		}
	}
	if exact == nil {
		exact = &stringsort.Stats{}
	}
	return []metric{
		medianMetric("sort_wall_s", "s", wall),
		medianMetric("sort_alloc_mb", "MB", alloc),
		medianMetric("sort_mallocs_k", "kallocs", mallocs),
		{Name: "comm_bytes_per_str", Unit: "B/str", Value: exact.BytesPerString},
		{Name: "model_ms", Unit: "model-ms", Value: exact.ModelTime * 1e3},
		medianMetric("cli_wall_s", "s", cliWall),
		medianMetric("cli_peak_rss_mb", "MB", cliRSS),
		medianMetric("setup_s", "s", setups),
	}, nil
}
