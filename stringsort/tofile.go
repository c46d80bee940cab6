package stringsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/merge"
	"dss/internal/spill"
)

// lineBuf caps the size of a PE's output buffer in RAM; under a memory
// budget the merge's is one spill page instead.
const lineBuf = 1 << 20

// touchAhead is how many lines writeLines reads ahead of writing them:
// lines named by PDMS origins lie anywhere in the input, and touching a
// batch of them in one loop of independent loads overlaps their cache
// misses.
const touchAhead = 32

// SortToFile sorts inputs like Sort and writes the sorted sequence to out as
// lines, each followed by '\n', in PE order — a PDMS prefix as the input
// line its origin names — and returns the run's statistics.
//
// No PE's fragment is materialized and no sorted-run file is written: each
// PE learns its exact line and byte counts before it writes, takes its
// region of the file from an exclusive prefix sum over those counts (taken
// in shared memory: no message is sent and no counter moves), and writes
// its lines straight into that region with positioned writes through one
// buffer: its Step-4 merge does, through a spill page metered by the PE's
// pool under Config.MemBudget, or for PDMS, whose merge keeps only the
// origins, the step after the statistics, which looks the lines up in
// inputs. The statistics equal Sort's.
//
// The lines start at out's current offset, which is left at their end. An
// out that takes no positioned writes — a pipe, a socket, a terminal, a
// file opened for appending — receives the same bytes through an unlinked
// temporary file under Config.SpillDir, copied out once the sort is done.
func SortToFile(inputs [][][]byte, cfg Config, out *os.File) (Stats, error) {
	p, err := machineSize(inputs, cfg)
	if err != nil {
		return Stats{}, err
	}
	lines, err := newLineFile(out, cfg.SpillDir, 0, p)
	if err != nil {
		return Stats{}, err
	}
	defer lines.close()
	runs, err := runMachine(inputs, cfg, p, func(c *comm.Comm, local [][]byte) (*peRun, error) {
		return runRank(c, local, cfg, "", lines, inputs)
	})
	if err != nil {
		return Stats{}, err
	}
	return runs[0].Stats, lines.finish()
}

// lineFile is the output file of SortToFile and RunPE, shared by the PEs
// that write into it: ranks first, first+1, …, one per entry of ends. The
// i-th of them writes its lines into [ends[i−1], ends[i]), with ends[−1] =
// base. A RunPE rank writes its own file and waits for no predecessor.
type lineFile struct {
	out   *os.File // the caller's file
	f     *os.File // out, or the temporary file standing in for it
	base  int64
	first int             // rank of the first PE writing into f
	ends  []int64         // ends[i] is set before done[i] closes
	done  []chan struct{} // done[i] closes once the i-th PE has taken its region
}

// newLineFile returns the lineFile of the n PEs from rank first on, whose
// lines start at out's current offset. An out that takes no positioned
// writes — a pipe, a socket, a terminal, a file opened for appending — is
// stood in for by an unlinked temporary file under dir, which finish copies
// out.
func newLineFile(out *os.File, dir string, first, n int) (*lineFile, error) {
	lf := &lineFile{out: out, f: out, first: first, ends: make([]int64, n), done: make([]chan struct{}, n)}
	for i := range lf.done {
		lf.done[i] = make(chan struct{})
	}
	var err error
	if lf.base, err = out.Seek(0, io.SeekCurrent); err != nil || appendOnly(out) {
		if lf.f, err = os.CreateTemp(dir, "dss-out-"); err != nil {
			return nil, fmt.Errorf("stringsort: output: %w", err)
		}
		os.Remove(lf.f.Name())
		lf.base = 0
	}
	return lf, nil
}

// finish leaves out's offset at the end of the lines, copying them out of
// the temporary file first if there is one.
func (lf *lineFile) finish() error {
	end := lf.ends[len(lf.ends)-1]
	var err error
	if lf.f == lf.out {
		_, err = lf.out.Seek(end, io.SeekStart)
	} else if _, err = lf.f.Seek(0, io.SeekStart); err == nil {
		_, err = io.Copy(lf.out, io.LimitReader(lf.f, end))
	}
	if err != nil {
		return fmt.Errorf("stringsort: output: %w", err)
	}
	return nil
}

// close closes the temporary file, if there is one.
func (lf *lineFile) close() {
	if lf.f != lf.out {
		lf.f.Close()
	}
}

// region takes the region of size bytes of c's PE, once the PE before it
// has taken its own, and returns its offset: an exclusive prefix sum over
// the PEs' sizes. A PE whose predecessor failed stops when the machine
// aborts.
func (lf *lineFile) region(c *comm.Comm, size int64) (int64, error) {
	i, start := c.Rank()-lf.first, lf.base
	if i > 0 {
		select {
		case <-lf.done[i-1]:
			start = lf.ends[i-1]
		case <-c.Aborted():
			return 0, errors.New("stringsort: output: the run aborted before this PE's region was known")
		}
	}
	lf.ends[i] = start + size
	close(lf.done[i])
	return start, nil
}

// start points w at c's region of size bytes and gives it its buffer,
// metered by w.pool if non-nil.
func (lf *lineFile) start(c *comm.Comm, w *lineWriter, size int64) error {
	off, err := lf.region(c, size)
	if err != nil {
		return err
	}
	n := int(min(lineBuf, size))
	if w.pool != nil {
		n = w.pool.PageSize()
		w.pool.Reserve(int64(n))
	}
	w.off, w.end, w.buf = off, off+size, make([]byte, 0, n)
	return nil
}

// output returns the sink of c's PE into its region and the function that
// flushes it. Every item goes out as its string and '\n', exactly as chk
// sees it.
func (lf *lineFile) output(c *comm.Comm, sp *spill.Pool, chk *streamCheck) (*core.Output, func() error) {
	w := &lineWriter{f: lf.f, pool: sp}
	out := &core.Output{Open: func(runs []core.Extent) (merge.Sink, error) {
		var total int64 // every item's line and its '\n'
		for _, r := range runs {
			total += r.N + r.Chars
		}
		if err := lf.start(c, w, total); err != nil {
			return nil, err
		}
		return func(_ int, s []byte, lcp int32, _ uint64) error {
			chk.add(s, lcp)
			w.add(s)
			return nil
		}, nil
	}}
	return out, w.close
}

// writeLines writes the n lines line(0), …, line(n−1) — a PDMS fragment
// whose origins resolve to them — into c's region, exactly as chk sees
// them: it sums their sizes, only then takes the region, and writes them
// a touch-ahead batch at a time. An error from line fails the PE before it
// writes anything.
func (lf *lineFile) writeLines(c *comm.Comm, n int, line func(i int) ([]byte, error), chk *streamCheck) error {
	var size int64
	for i := 0; i < n; i++ {
		s, err := line(i)
		if err != nil {
			return err
		}
		size += int64(len(s)) + 1
	}
	w := &lineWriter{f: lf.f}
	if err := lf.start(c, w, size); err != nil {
		return err
	}
	var batch [touchAhead][]byte
	var touched byte
	for lo := 0; lo < n; lo += touchAhead {
		b := batch[:min(touchAhead, n-lo)]
		for i := range b {
			if b[i], _ = line(lo + i); len(b[i]) > 0 {
				touched += b[i][0]
			}
		}
		for _, s := range b {
			chk.add(s, 0)
			w.add(s)
		}
	}
	runtime.KeepAlive(touched) // the loads are the point; keep them
	return w.close()
}

// lineWriter writes one PE's lines into its region [off, end) of the file
// with positioned writes, through one buffer (metered by pool if non-nil).
// The first failed write is kept and reported by close, and the rest of the
// merge writes nothing, so the PE returns the error instead of panicking.
type lineWriter struct {
	f        *os.File
	pool     *spill.Pool
	buf      []byte
	off, end int64
	err      error
}

// add appends line s and its '\n'; a line longer than the buffer goes out
// as it is.
func (w *lineWriter) add(s []byte) {
	if w.err != nil {
		return
	}
	if len(w.buf)+len(s)+1 > cap(w.buf) {
		w.flush()
		if len(s)+1 > cap(w.buf) && w.err == nil {
			_, w.err = w.f.WriteAt(s, w.off)
			w.off += int64(len(s))
			s = nil
		}
	}
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\n')
}

// flush writes the buffered lines at the region's current offset.
func (w *lineWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.WriteAt(w.buf, w.off)
		w.off += int64(len(w.buf))
	}
	w.buf = w.buf[:0]
}

// close flushes the tail, returns the buffer to the pool and reports the
// first failed write, or a region the lines did not fill exactly.
func (w *lineWriter) close() error {
	w.flush()
	if w.pool != nil {
		w.pool.Release(int64(cap(w.buf)))
	}
	if w.err == nil && w.off != w.end {
		w.err = fmt.Errorf("wrote up to offset %d of a region ending at %d", w.off, w.end)
	}
	return w.err
}
