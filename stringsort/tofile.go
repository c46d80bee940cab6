package stringsort

import (
	"errors"
	"fmt"
	"io"
	"os"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/merge"
	"dss/internal/spill"
)

// lineBuf caps the size of a PE's output buffer in RAM; under a memory
// budget it is one spill page instead.
const lineBuf = 1 << 20

// resolveBatch is how many PDMS lines a sink resolves at once.
const resolveBatch = 32

// SortToFile sorts inputs like Sort and writes the sorted sequence to out as
// lines, each followed by '\n', in PE order — a PDMS prefix as the input
// line its origin names, looked up in inputs — and returns the run's
// statistics. The output is always lines, so Config.Reconstruct is moot.
//
// No PE's fragment is materialized and no sorted-run file is written: each
// PE learns its exact line and byte counts before its Step-4 merge, takes
// its region of the file from an exclusive prefix sum over those counts
// (taken in shared memory: no message is sent and no counter moves), and
// its merge writes the lines straight into that region with positioned
// writes through one buffer — a spill page metered by the PE's pool under
// Config.MemBudget. The statistics equal Sort's.
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
	dst := out
	base, err := out.Seek(0, io.SeekCurrent)
	if err != nil || appendOnly(out) {
		if dst, err = os.CreateTemp(cfg.SpillDir, "dss-out-"); err != nil {
			return Stats{}, fmt.Errorf("stringsort: output: %w", err)
		}
		os.Remove(dst.Name())
		defer dst.Close()
		base = 0
	}
	lines := &lineFile{f: dst, inputs: inputs, base: base, ends: make([]int64, p), done: make([]chan struct{}, p)}
	for r := range lines.done {
		lines.done[r] = make(chan struct{})
	}
	runs, err := runMachine(inputs, cfg, p, func(c *comm.Comm, local [][]byte) (*PERun, error) {
		return runRank(c, local, cfg, "", lines, inputs)
	})
	if err != nil {
		return Stats{}, err
	}
	end := lines.ends[p-1]
	if dst == out {
		_, err = out.Seek(end, io.SeekStart)
	} else if _, err = dst.Seek(0, io.SeekStart); err == nil {
		_, err = io.Copy(out, io.LimitReader(dst, end))
	}
	if err != nil {
		return Stats{}, fmt.Errorf("stringsort: output: %w", err)
	}
	return runs[0].Stats, nil
}

// lineFile is SortToFile's output file, shared by the PEs of one machine:
// PE r writes its lines into [ends[r−1], ends[r]), with ends[−1] = base.
type lineFile struct {
	f      *os.File
	inputs [][][]byte // every PE's input, where PDMS origins resolve
	base   int64
	ends   []int64         // ends[r] is set before done[r] closes
	done   []chan struct{} // done[r] closes once PE r has taken its region
}

// region takes the region of size bytes of c's PE, once the PE before it
// has taken its own, and returns its offset: an exclusive prefix sum over
// the PEs' sizes. A PE whose predecessor failed stops when the machine
// aborts.
func (lf *lineFile) region(c *comm.Comm, size int64) (int64, error) {
	r, start := c.Rank(), lf.base
	if r > 0 {
		select {
		case <-lf.done[r-1]:
			start = lf.ends[r-1]
		case <-c.Aborted():
			return 0, errors.New("stringsort: output: the run aborted before this PE's region was known")
		}
	}
	lf.ends[r] = start + size
	close(lf.done[r])
	return start, nil
}

// line returns the input line a PDMS origin names (PE in the high 32 bits).
func (lf *lineFile) line(sat uint64) []byte { return lf.inputs[sat>>32][uint32(sat)] }

// output returns the sink of c's PE into its region and the function that
// flushes it. Every item goes out as its line and '\n', exactly as chk sees
// it. With prefixes (PDMS) an item goes out as the input line its origin
// names; those lines lie anywhere in the input, so they are resolved a
// batch at a time, with the batch's lines touched in one loop of
// independent loads first so that their cache misses overlap.
func (lf *lineFile) output(c *comm.Comm, sp *spill.Pool, prefixes bool, chk *streamCheck) (*core.Output, func() error) {
	w := &lineWriter{f: lf.f, pool: sp}
	out := &core.Output{}
	var sats []uint64 // PDMS origins not yet written
	var touched byte
	resolve := func() {
		var lines [resolveBatch][]byte
		for i, sat := range sats {
			if lines[i] = lf.line(sat); len(lines[i]) > 0 {
				touched += lines[i][0]
			}
		}
		for _, s := range lines[:len(sats)] {
			chk.add(s, 0)
			w.add(s)
		}
		sats = sats[:0]
	}
	if prefixes {
		out.Line = func(sat uint64) int { return len(lf.line(sat)) }
		sats = make([]uint64, 0, resolveBatch)
	}
	out.Open = func(runs []core.Extent) (merge.Sink, error) {
		var total int64 // every item's line and its '\n'
		for _, r := range runs {
			total += r.N + r.Chars
		}
		off, err := lf.region(c, total)
		if err != nil {
			return nil, err
		}
		size := int(min(lineBuf, total))
		if sp != nil {
			size = sp.PageSize()
			sp.Reserve(int64(size))
		}
		w.off, w.end, w.buf = off, off+total, make([]byte, 0, size)
		return func(_ int, s []byte, lcp int32, sat uint64) error {
			if out.Line == nil {
				chk.add(s, lcp)
				w.add(s)
			} else if sats = append(sats, sat); len(sats) == resolveBatch {
				resolve()
			}
			return nil
		}, nil
	}
	return out, func() error {
		resolve()
		return w.close()
	}
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
