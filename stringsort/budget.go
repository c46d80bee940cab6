// Output plumbing: the per-PE glue between the public entry points and the
// core.Output every sorter's fragment leaves through. With Config.MemBudget
// set, each PE gets its own spill pool (page files under a private temp
// dir, removed on success, error and panic paths alike). In RAM, Sort
// builds the fragment's arrays (the arena, runpe.go); under a budget it
// streams it into a sorted-run file instead of materializing it — the
// public result carries the file path and the reader below — and
// SortToFile and RunPE stream it, in RAM and under a budget, into the PE's
// region of an output file (tofile.go).
package stringsort

import (
	"fmt"
	"os"
	"path/filepath"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/merge"
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

// sortPE runs one PE's sort into the Output of its run: the origin column
// *sats of a PDMS fragment whose lines are wanted (sats non-nil), the
// arrays of run.Output in RAM (arena), the
// sorted-run file at path (Sort under a budget) or the PE's region of
// lines (SortToFile and RunPE).
// Under a budget it creates the PE's spill pool — its Close is deferred,
// so the page files are removed even when the sort panics — and stamps the
// spill gauges into the PE's stats record (measured channel: the values
// vary run to run and must be stamped before the report is gathered). A
// streaming Output feeds chk every item exactly as it writes it; a nil chk
// ignores them.
func sortPE(c *comm.Comm, local [][]byte, cfg Config, path string, lines *lineFile, run *peRun, sats *[]uint64, chk *streamCheck) error {
	var sp *spill.Pool
	if cfg.MemBudget > 0 {
		var err error
		if sp, err = newSpillPool(spill.Config{
			Budget:   cfg.MemBudget,
			Dir:      cfg.SpillDir,
			PageSize: cfg.spillPageSize,
		}, c.Pool()); err != nil {
			return err
		}
		defer sp.Close()
		sp.SetTrace(c.Trace())
	}
	opts := runOpts(cfg.Algorithm)
	var out *core.Output
	finish := func() error { return nil }
	switch {
	case sats != nil:
		out = originColumn(sats)
	case lines != nil:
		out, finish = lines.output(c, sp, chk)
	case path != "":
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("stringsort: run file: %w", err)
		}
		defer f.Close()
		rw, err := spill.NewRunWriter(f, opts, sp, cfg.spillPageSize)
		if err != nil {
			return err
		}
		run.Output.RunFile = path
		out = &core.Output{Open: func(runs []core.Extent) (merge.Sink, error) {
			for _, r := range runs {
				run.Output.RunCount += r.N
			}
			return func(_ int, s []byte, lcp int32, sat uint64) error {
				chk.add(s, lcp)
				return rw.Add(s, lcp, sat)
			}, nil
		}}
		finish = rw.Close
	default:
		out = arena(&run.Output, opts.LCP, opts.Sats)
	}
	dispatch(c, local, cfg, sp, out)
	if err := finish(); err != nil {
		return fmt.Errorf("stringsort: output: %w", err)
	}
	if sp != nil {
		pe := c.StatsPE()
		pe.SpillBytesWritten = sp.BytesWritten()
		pe.SpillBytesRead = sp.BytesRead()
		pe.PeakLiveBytes = sp.Peak()
	}
	return nil
}

// streamCheck is the distributed verifier's view of a streamed fragment:
// the sink feeds it every item as it writes it (in RAM, runRank feeds it
// the finished arrays) — local order, stored-LCP correctness and the
// cross-PE boundaries in one pass, plus the multiset hash of full-string
// outputs — and finish runs the collective checks. It is the one validator
// of every Output. A nil check ignores what it is fed.
type streamCheck struct {
	chk      verify.StreamChecker
	hasLCP   bool // the items carry their LCP with the previous item
	multiset bool // the items are full input strings, not prefixes
	hash     uint64
	count    int64
}

// add feeds the next item of the fragment.
func (v *streamCheck) add(s []byte, lcp int32) {
	if v == nil {
		return
	}
	v.chk.Add(s, lcp, v.hasLCP)
	if v.multiset {
		v.hash = strutil.MultisetAdd(v.hash, s)
	}
	v.count++
}

// finish completes the check across the PEs. Collective call.
func (v *streamCheck) finish(c *comm.Comm, input [][]byte) error {
	if err := v.chk.Finish(c, 901); err != nil {
		return err
	}
	if v.multiset {
		return verify.MultisetStream(c, input, v.hash, v.count, 902)
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

// HasOrigins reports whether items carry provenance (PDMS, hQuick).
func (r *RunFile) HasOrigins() bool { return r.sc.HasSats() }

// Next returns the next item of the run. ok=false with a nil error means
// the run ended cleanly. s aliases an internal buffer valid only until
// the next call — copy it to keep it.
func (r *RunFile) Next() (s []byte, lcp int32, origin Origin, ok bool, err error) {
	s, lcp, sat, ok, err := r.sc.Next()
	if ok && r.sc.HasSats() {
		origin = satOrigin(sat)
	}
	return s, lcp, origin, ok, err
}

// Close closes the underlying file.
func (r *RunFile) Close() error { return r.f.Close() }
