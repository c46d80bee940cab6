package stringsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dss/internal/par"
	"dss/internal/spill"
	"dss/internal/transport/tcp"
)

// runPEOverTCP executes one RunPE per rank over a loopback TCP fabric and
// fails the test on any rank error.
func runPEOverTCP(t *testing.T, inputs [][][]byte, cfg Config) []*PERun {
	t.Helper()
	runs, errs := runPEsOverTCP(t, inputs, cfg)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return runs
}

// runPEsOverTCP executes one RunPE per rank over a loopback TCP fabric and
// returns every rank's result and error.
func runPEsOverTCP(t *testing.T, inputs [][][]byte, cfg Config) ([]*PERun, []error) {
	t.Helper()
	p := len(inputs)
	f, err := tcp.NewLoopback(p)
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	defer f.Close()
	runs := make([]*PERun, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			runs[rank], errs[rank] = RunPE(f.Endpoint(rank), inputs[rank], cfg)
		}(rank)
	}
	wg.Wait()
	return runs, errs
}

// budgetInvariant zeroes the measured fields of a Stats — the wall-clock
// channel plus the spill gauges, which exist only in budget mode — so a
// budgeted run's statistics can be compared bit for bit against an
// unbudgeted run of the same input: the out-of-core pipeline must not move
// a single deterministic counter.
func budgetInvariant(st Stats) Stats {
	st = deterministic(st)
	st.PeakMemBytes = 0
	st.SpillBytesWritten = 0
	st.SpillBytesRead = 0
	return st
}

// budgetCase is the tiny-budget configuration of the differential tests:
// the per-PE input volume is several times the budget, so the merge
// families must go through at least two spill generations (multiple page
// flushes and page-ins) to finish at all.
const (
	testBudget = 4 << 10
	testPage   = 512
	testPEs    = 4
	testPerPE  = 4000
	// What the metered peak may exceed the budget by: one paged-in span per
	// window (two windows per PDMS run), each page file's pending tail,
	// the write-behind pages in flight while a bucket is routed and the
	// run writer's page — 20 pages leave slack over the 2·4+4 of a merge.
	testOverhead = 20 * testPage
)

func budgetConfig(base Config, dir string) Config {
	base.MemBudget = testBudget
	base.spillPageSize = testPage
	base.SpillDir = dir
	return base
}

// TestBudgetDifferential sorts the same input with and without a memory
// budget for every algorithm family and requires byte-identical output
// (strings, LCP columns, origins), bit-identical deterministic statistics,
// real spill traffic for the merge families — for PDMS, too, less than the
// PEs received — and a metered peak within budget + the documented fixed
// overhead.
func TestBudgetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	inputs := genInputs(rng, testPEs, testPerPE)
	for _, algo := range []Algorithm{FKMerge, MSSimple, MS, PDMS, PDMSGolomb, HQuick} {
		t.Run(algo.String(), func(t *testing.T) {
			base := Config{Algorithm: algo, Seed: 21, Validate: true}
			ram, err := Sort(inputs, base)
			if err != nil {
				t.Fatalf("in-RAM sort: %v", err)
			}
			bu, err := Sort(inputs, budgetConfig(base, t.TempDir()))
			if err != nil {
				t.Fatalf("budget sort: %v", err)
			}
			if bu.PrefixOnly != ram.PrefixOnly {
				t.Fatalf("PrefixOnly: budget %v, in-RAM %v", bu.PrefixOnly, ram.PrefixOnly)
			}
			for pe := range bu.PEs {
				out := bu.PEs[pe]
				if out.Strings != nil || out.RunFile == "" {
					t.Fatalf("PE %d: budget result should hold a run file, not strings", pe)
				}
				ss, lcps, origins, err := ReadRunFile(out.RunFile)
				if err != nil {
					t.Fatalf("PE %d: read run file: %v", pe, err)
				}
				if int64(len(ss)) != out.RunCount {
					t.Fatalf("PE %d: RunCount %d but file holds %d items", pe, out.RunCount, len(ss))
				}
				want := ram.PEs[pe]
				if !equalOutputs(ss, want.Strings) {
					t.Fatalf("PE %d: budget output differs from in-RAM output", pe)
				}
				if want.LCPs != nil {
					if len(lcps) != len(want.LCPs) {
						t.Fatalf("PE %d: LCP column length %d, want %d", pe, len(lcps), len(want.LCPs))
					}
					for i := range lcps {
						if i > 0 && lcps[i] != want.LCPs[i] {
							t.Fatalf("PE %d: LCP[%d] = %d, want %d", pe, i, lcps[i], want.LCPs[i])
						}
					}
				}
				if want.Origins != nil {
					if len(origins) != len(want.Origins) {
						t.Fatalf("PE %d: origin column length %d, want %d", pe, len(origins), len(want.Origins))
					}
					for i := range origins {
						if origins[i] != want.Origins[i] {
							t.Fatalf("PE %d: origin[%d] = %+v, want %+v", pe, i, origins[i], want.Origins[i])
						}
					}
				}
			}
			if got, want := budgetInvariant(bu.Stats), budgetInvariant(ram.Stats); got != want {
				t.Fatalf("deterministic stats moved under the budget:\nbudget: %+v\nin-RAM: %+v", got, want)
			}
			if algo == HQuick {
				// hQuick is not out of core: the budget bounds only the
				// output accumulation, so no spill traffic is expected.
				return
			}
			if bu.Stats.SpillBytesWritten < 2*testPage {
				t.Fatalf("expected at least two spilled pages, got %d bytes", bu.Stats.SpillBytesWritten)
			}
			if bu.Stats.SpillBytesRead == 0 {
				t.Fatalf("expected spilled bytes to be paged back in")
			}
			if bu.Stats.PeakMemBytes == 0 {
				t.Fatalf("expected a metered peak")
			}
			if bu.Stats.PeakMemBytes > testBudget+testOverhead {
				t.Fatalf("peak %d exceeds budget %d + overhead %d", bu.Stats.PeakMemBytes, testBudget, testOverhead)
			}
			if algo == PDMS || algo == PDMSGolomb {
				// The composite bucket is not forced to disk: what the budget
				// has room for stays resident. A budget with no room at all
				// (the run writer's page alone exceeds it) writes every byte
				// the PEs received, so the real budget must write fewer.
				cfg := budgetConfig(base, t.TempDir())
				cfg.MemBudget = 1
				all, err := Sort(inputs, cfg)
				if err != nil {
					t.Fatalf("no-room budget sort: %v", err)
				}
				if bu.Stats.SpillBytesWritten >= all.Stats.SpillBytesWritten {
					t.Fatalf("spilled %d bytes of the %d received: nothing stayed resident under the budget",
						bu.Stats.SpillBytesWritten, all.Stats.SpillBytesWritten)
				}
			}
		})
	}
}

// TestBudgetSortStrings checks that SortStrings under a budget small enough
// to spill returns the full strings, not PDMS's distinguishing prefixes, and
// leaves no run files behind.
func TestBudgetSortStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	var words []string
	for _, in := range genInputs(rng, testPEs, testPerPE) {
		for _, s := range in {
			words = append(words, string(s))
		}
	}
	want := append([]string(nil), words...)
	sort.Strings(want)
	// SortStrings deals the strings round-robin; the same deal through Sort
	// shows that the budget spills.
	dealt := make([][][]byte, testPEs)
	for i, w := range words {
		dealt[i%testPEs] = append(dealt[i%testPEs], []byte(w))
	}
	for _, algo := range []Algorithm{MS, PDMS, PDMSGolomb} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := budgetConfig(Config{P: testPEs, Algorithm: algo, Seed: 22}, t.TempDir())
			res, err := Sort(dealt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			os.RemoveAll(runDirOf(res.PEs[0].RunFile))
			if res.Stats.SpillBytesWritten == 0 {
				t.Fatal("the budget did not spill")
			}
			dir := t.TempDir()
			got, err := SortStrings(words, budgetConfig(Config{P: testPEs, Algorithm: algo, Seed: 22}, dir))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d strings, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: %q, want %q", i, got[i], want[i])
				}
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("%d entries left in the spill dir", len(left))
			}
		})
	}
}

// TestBudgetAcrossSeamsAndTransports pins the spilling run's output and
// deterministic statistics across the exchange disciplines (split vs
// blocking) and the transports (local vs TCP).
func TestBudgetAcrossSeamsAndTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	inputs := genInputs(rng, testPEs, testPerPE)
	base := Config{Algorithm: MS, Seed: 33, Validate: true}

	type variant struct {
		name string
		mut  func(*Config)
	}
	variants := []variant{
		{"split-local", func(c *Config) {}},
		{"blocking-local", func(c *Config) { c.blockingExchange = true }},
		{"split-tcp", func(c *Config) { c.Transport = TransportTCP }},
		{"blocking-tcp", func(c *Config) { c.Transport = TransportTCP; c.blockingExchange = true }},
	}
	var refOut [][][]byte
	var refStats Stats
	for i, v := range variants {
		cfg := budgetConfig(base, t.TempDir())
		v.mut(&cfg)
		res, err := Sort(inputs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		outs := make([][][]byte, len(res.PEs))
		for pe, p := range res.PEs {
			ss, _, _, err := ReadRunFile(p.RunFile)
			if err != nil {
				t.Fatalf("%s: PE %d: %v", v.name, pe, err)
			}
			outs[pe] = ss
		}
		if res.Stats.SpillBytesWritten == 0 {
			t.Fatalf("%s: expected spill traffic", v.name)
		}
		if i == 0 {
			refOut, refStats = outs, res.Stats
			continue
		}
		for pe := range outs {
			if !equalOutputs(outs[pe], refOut[pe]) {
				t.Fatalf("%s: PE %d output differs from %s", v.name, pe, variants[0].name)
			}
		}
		if got, want := budgetInvariant(res.Stats), budgetInvariant(refStats); got != want {
			t.Fatalf("%s: deterministic stats differ from %s:\n%+v\n%+v", v.name, variants[0].name, got, want)
		}
	}
}

// TestBudgetSpillLifecycle checks the page-file housekeeping: page files
// are created inside the configured spill directory while the run is in
// flight and are all gone when Sort returns — after a successful run and
// after a failing one alike.
func TestBudgetSpillLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(810))
	inputs := genInputs(rng, testPEs, testPerPE)
	dir := t.TempDir()

	var mu sync.Mutex
	var created []string
	orig := newSpillPool
	newSpillPool = func(cfg spill.Config, workers *par.Pool) (*spill.Pool, error) {
		inner := cfg.Create
		if inner == nil {
			inner = os.Create
		}
		cfg.Create = func(name string) (*os.File, error) {
			mu.Lock()
			created = append(created, name)
			mu.Unlock()
			return inner(name)
		}
		return orig(cfg, workers)
	}
	defer func() { newSpillPool = orig }()

	res, err := Sort(inputs, budgetConfig(Config{Algorithm: MS, Seed: 5}, dir))
	if err != nil {
		t.Fatalf("budget sort: %v", err)
	}
	if len(created) == 0 {
		t.Fatalf("expected page files to be created")
	}
	for _, name := range created {
		if !strings.HasPrefix(name, dir+string(filepath.Separator)) {
			t.Fatalf("page file %q escaped the configured spill dir %q", name, dir)
		}
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("page file %q survived the run", name)
		}
	}
	// The sorted-run files themselves are the caller's to remove; once
	// they are, nothing of the run is left, so no spill dir survived.
	for pe, p := range res.PEs {
		if _, err := os.Stat(p.RunFile); err != nil {
			t.Fatalf("PE %d run file missing: %v", pe, err)
		}
	}
	if err := os.RemoveAll(runDirOf(res.PEs[0].RunFile)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	for _, e := range entries {
		t.Fatalf("artifact %q survived the run", e.Name())
	}
}

// TestBudgetSpillFailureCleanup injects a page-file creation failure and
// requires Sort to surface an error while still removing every spill
// artifact and the partial sorted-run directory.
func TestBudgetSpillFailureCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	inputs := genInputs(rng, testPEs, testPerPE)
	dir := t.TempDir()

	orig := newSpillPool
	newSpillPool = func(cfg spill.Config, workers *par.Pool) (*spill.Pool, error) {
		cfg.Create = func(name string) (*os.File, error) {
			return nil, fmt.Errorf("injected create failure for %s", name)
		}
		return orig(cfg, workers)
	}
	defer func() { newSpillPool = orig }()

	_, err := Sort(inputs, budgetConfig(Config{Algorithm: MS, Seed: 5}, dir))
	if err == nil || !strings.Contains(err.Error(), "injected create failure") {
		t.Fatalf("expected the injected failure to surface, got %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	for _, e := range entries {
		t.Fatalf("artifact %q survived the failed run", e.Name())
	}
}

// TestSpillFailureOnOneRankAborts fails page-file creation on exactly one
// PE's spill pool — the first one created — while its peers are healthy.
// The failing PE panics mid-exchange; Sort must abort the others instead
// of stranding them in a collective, return the injected failure rather
// than a peer's closed-endpoint error, and leave no file behind — over
// both transports, and with chaos frames still queued when the endpoints
// close.
func TestSpillFailureOnOneRankAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(813))
	inputs := genInputs(rng, testPEs, testPerPE)
	for _, base := range []Config{
		{Transport: TransportLocal},
		{Transport: TransportTCP},
		{Transport: TransportTCP, Chaos: "reorder", ChaosSeed: 3},
	} {
		dir := t.TempDir()
		var pools atomic.Int32
		orig := newSpillPool
		newSpillPool = func(cfg spill.Config, workers *par.Pool) (*spill.Pool, error) {
			if pools.Add(1) == 1 {
				cfg.Create = func(name string) (*os.File, error) {
					return nil, fmt.Errorf("injected create failure for %s", name)
				}
			}
			return orig(cfg, workers)
		}
		base.Algorithm, base.Seed, base.Validate = MS, 5, true
		_, err := Sort(inputs, budgetConfig(base, dir))
		newSpillPool = orig
		if err == nil || !strings.Contains(err.Error(), "injected create failure") {
			t.Fatalf("%v chaos=%q: expected the injected failure to surface, got %v", base.Transport, base.Chaos, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read spill dir: %v", err)
		}
		for _, e := range entries {
			t.Fatalf("%v chaos=%q: artifact %q survived the failed run", base.Transport, base.Chaos, e.Name())
		}
	}
}

// TestBudgetRunPETraceFailureCleanup makes rank 0's trace export fail (the
// trace path's directory does not exist) under a budget: rank 0 must
// report the failure and remove its run directory like every other error
// path does; the other ranks succeed and their run files are the caller's.
func TestBudgetRunPETraceFailureCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(814))
	inputs := genInputs(rng, testPEs, testPerPE/4)
	dir := t.TempDir()
	cfg := budgetConfig(Config{Algorithm: MS, Seed: 9}, dir)
	cfg.Trace = filepath.Join(dir, "missing", "trace.json")

	runs, errs := runPEsOverTCP(t, inputs, cfg)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "trace") {
		t.Fatalf("rank 0: expected the trace export to fail, got %v", errs[0])
	}
	for rank := 1; rank < testPEs; rank++ {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		os.RemoveAll(runDirOf(runs[rank].Output.RunFile))
	}
	left, err := filepath.Glob(filepath.Join(dir, "dss-runs-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("run directories left behind: %v", left)
	}
}

// TestBudgetRunPE runs the budget pipeline through the SPMD entry point
// over an in-process TCP fabric and diffs every rank's run file against
// the in-process Sort of the same input.
func TestBudgetRunPE(t *testing.T) {
	rng := rand.New(rand.NewSource(812))
	inputs := genInputs(rng, testPEs, testPerPE/4)
	base := Config{Algorithm: PDMS, Seed: 9, Validate: true}
	cfg := budgetConfig(base, t.TempDir())
	cfg.MemBudget = 1 << 10 // quarter-size input, quarter-size budget

	ram, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("in-RAM sort: %v", err)
	}
	runs := runPEOverTCP(t, inputs, cfg)
	for pe, run := range runs {
		ss, _, _, err := ReadRunFile(run.Output.RunFile)
		if err != nil {
			t.Fatalf("PE %d: %v", pe, err)
		}
		if !equalOutputs(ss, ram.PEs[pe].Strings) {
			t.Fatalf("PE %d: RunPE budget output differs from Sort", pe)
		}
		if got, want := budgetInvariant(run.Stats), budgetInvariant(ram.Stats); got != want {
			t.Fatalf("PE %d: stats differ:\n%+v\n%+v", pe, got, want)
		}
		os.RemoveAll(runDirOf(run.Output.RunFile))
	}
}

func TestParseMemBudget(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		bad  bool
	}{
		{"", 0, false},
		{"65536", 65536, false},
		{"64k", 64 << 10, false},
		{"64K", 64 << 10, false},
		{"8m", 8 << 20, false},
		{"2G", 2 << 30, false},
		{"-1", 0, true},
		{"64q", 0, true},
		{"m", 0, true},
		{"", 0, false},
		{"8589934591g", 8589934591 << 30, false},
		// n * mult overflows int64: each wrapped to a negative budget,
		// which a run takes for "no budget".
		{"9999999999g", 0, true},
		{"8589934592g", 0, true},
		{"9223372036854775807k", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMemBudget(c.in)
		if c.bad {
			if err == nil {
				t.Fatalf("ParseMemBudget(%q): expected error, got %d", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("ParseMemBudget(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
