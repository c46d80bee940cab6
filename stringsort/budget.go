// Budget-mode plumbing: the per-PE glue between the public Config and the
// out-of-core pipeline in internal/core and internal/spill. With
// Config.MemBudget set, each PE gets its own spill pool (page files under
// a private temp dir, removed on success, error and panic paths alike)
// and streams its merged fragment into a sorted-run file instead of
// materializing an output arena; the public result carries the file path
// and the readers below.
package stringsort

import (
	"fmt"
	"os"
	"path/filepath"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/spill"
	"dss/internal/strutil"
	"dss/internal/verify"
)

// newSpillPool is the spill pool constructor — a package variable so the
// lifecycle tests can inject creation failures.
var newSpillPool = spill.NewPool

// runOpts selects the sorted-run file columns per algorithm: LCPs for the
// LCP-producing sorters, satellites for the origin-reporting ones.
func runOpts(a Algorithm) spill.RunWriterOpts {
	switch a {
	case HQuick:
		return spill.RunWriterOpts{LCP: true, Sats: true}
	case MS:
		return spill.RunWriterOpts{LCP: true}
	case PDMS, PDMSGolomb:
		return spill.RunWriterOpts{LCP: true, Sats: true}
	default: // MSSimple, FKMerge: plain strings
		return spill.RunWriterOpts{}
	}
}

// runPath names one PE's sorted-run output file inside the run directory.
func runPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("pe%d.run", rank))
}

// runDirOf recovers the run directory from a PEOutput.RunFile path.
func runDirOf(runFile string) string { return filepath.Dir(runFile) }

// runBudget executes one PE's budget-mode sort: it creates the PE's spill
// pool and sorted-run writer, dispatches the algorithm with the budget
// options set, closes the writer, and stamps the spill gauges into the
// PE's stats record (measured channel — the values vary run to run and
// must be stamped before the report is gathered). The pool's Close is
// deferred, so the page files are removed even when the sort panics.
func runBudget(c *comm.Comm, local [][]byte, cfg Config, path string) (core.Result, error) {
	sp, err := newSpillPool(spill.Config{
		Budget:   cfg.MemBudget,
		Dir:      cfg.SpillDir,
		PageSize: cfg.spillPageSize,
	}, c.Pool())
	if err != nil {
		return core.Result{}, err
	}
	defer sp.Close()
	sp.SetTrace(c.Trace())
	f, err := os.Create(path)
	if err != nil {
		return core.Result{}, fmt.Errorf("stringsort: run file: %w", err)
	}
	defer f.Close()
	out, err := spill.NewRunWriter(f, runOpts(cfg.Algorithm), sp, cfg.spillPageSize)
	if err != nil {
		return core.Result{}, err
	}
	res := dispatch(c, local, cfg, sp, out)
	if err := out.Close(); err != nil {
		return core.Result{}, fmt.Errorf("stringsort: run file: %w", err)
	}
	pe := c.StatsPE()
	pe.SpillBytesWritten = sp.BytesWritten()
	pe.SpillBytesRead = sp.BytesRead()
	pe.PeakLiveBytes = sp.Peak()
	return res, nil
}

// validateRun streams the PE's sorted-run file through the distributed
// verifier: local order, stored-LCP correctness and cross-PE boundaries
// in one pass, plus multiset preservation for full-string outputs —
// without materializing the fragment. Collective call, message-schedule
// compatible with the in-RAM Validate path.
func validateRun(c *comm.Comm, path string, input [][]byte, prefixOnly bool) error {
	rf, err := OpenRun(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	var chk verify.StreamChecker
	var outHash uint64
	var outCount int64
	for {
		s, lcp, _, ok, err := rf.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		chk.Add(s, lcp, rf.HasLCP())
		if !prefixOnly {
			outHash = strutil.MultisetAdd(outHash, s)
		}
		outCount++
	}
	if err := chk.Finish(c, 901); err != nil {
		return err
	}
	if !prefixOnly {
		return verify.MultisetStream(c, input, outHash, outCount, 902)
	}
	return nil
}

// RunFile streams a budget-mode sorted-run output file (PEOutput.RunFile)
// item by item.
type RunFile struct {
	f  *os.File
	sc *spill.RunScanner
}

// OpenRun opens a sorted-run file for streaming.
func OpenRun(path string) (*RunFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc, err := spill.NewRunScanner(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RunFile{f: f, sc: sc}, nil
}

// HasLCP reports whether items carry an LCP column (MS, PDMS, hQuick).
func (r *RunFile) HasLCP() bool { return r.sc.HasLCP() }

// HasOrigins reports whether items carry provenance (PDMS, hQuick).
func (r *RunFile) HasOrigins() bool { return r.sc.HasSats() }

// Next returns the next item of the run. ok=false with a nil error means
// the run ended cleanly. s aliases an internal buffer valid only until
// the next call — copy it to keep it.
func (r *RunFile) Next() (s []byte, lcp int32, origin Origin, ok bool, err error) {
	s, lcp, sat, ok, err := r.sc.Next()
	if ok && r.sc.HasSats() {
		origin = Origin{PE: int(sat >> 32), Index: int(uint32(sat))}
	}
	return s, lcp, origin, ok, err
}

// Close closes the underlying file.
func (r *RunFile) Close() error { return r.f.Close() }

// ReadRunFile loads a whole sorted-run file into memory — a convenience
// for tests and small outputs; large runs should stream through OpenRun.
func ReadRunFile(path string) (ss [][]byte, lcps []int32, origins []Origin, err error) {
	rf, err := OpenRun(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer rf.Close()
	for {
		s, lcp, o, ok, err := rf.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			return ss, lcps, origins, nil
		}
		ss = append(ss, append([]byte(nil), s...))
		if rf.HasLCP() {
			lcps = append(lcps, lcp)
		}
		if rf.HasOrigins() {
			origins = append(origins, o)
		}
	}
}
