// The sorted-run file format: what a budgeted worker writes instead of
// accumulating its merged output arena. The format is streaming on both
// sides — the writer needs no counts up front, the reader needs no index —
// and its pages are wire runs (see package wire), so a sorted run with long
// shared prefixes costs little more on disk than the LCP-compressed
// exchange payload did on the wire.
//
// Layout:
//
//	"DSSRUN1\n"  8-byte magic
//	flags        1 byte: the pages' wire.RunFormat — bit0 (wire.RunLCP) =
//	             items carry an LCP column, bit1 (wire.RunSats) = items
//	             carry a satellite column
//	pages        wire runs of that format, each of one or more items
//	terminator   uvarint 0, the item count of an empty run
//
// The front coding runs across page boundaries: a page's first item is
// front-coded against the last item of the page before, as if the pages
// were one run; wire.RunCursor.Continue reads them so.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dss/internal/wire"
)

var runMagic = [8]byte{'D', 'S', 'S', 'R', 'U', 'N', '1', '\n'}

// ErrRunCorrupt reports a malformed sorted-run file.
var ErrRunCorrupt = errors.New("spill: corrupt sorted-run file")

// RunWriterOpts selects the optional item columns of a sorted-run file.
type RunWriterOpts struct {
	LCP  bool // store the front-coded LCP column (LCP-merging families)
	Sats bool // store the satellite column (PDMS origins)
}

// RunWriter streams one PE's merged output to w page by page. Memory use
// is bounded by one page buffer regardless of run length; the optional
// pool meters that buffer. Not safe for concurrent use.
type RunWriter struct {
	w       io.Writer
	format  wire.RunFormat
	page    []byte
	inPg    int // items encoded into the current page
	prevLen int // length of the previous item of the run
	pool    *Pool
	pgCap   int
	err     error
	done    bool
}

// NewRunWriter starts a sorted-run file on w. pool (optional) meters the
// page buffer against the budget; pageSize <= 0 inherits the pool's page
// size (or DefaultPageSize without a pool), so the buffer scales with the
// budget the pool was configured for.
func NewRunWriter(w io.Writer, opts RunWriterOpts, pool *Pool, pageSize int) (*RunWriter, error) {
	if pageSize <= 0 {
		if pool != nil {
			pageSize = pool.PageSize()
		} else {
			pageSize = DefaultPageSize
		}
	}
	var format wire.RunFormat
	if opts.LCP {
		format |= wire.RunLCP
	}
	if opts.Sats {
		format |= wire.RunSats
	}
	if _, err := w.Write(append(runMagic[:], byte(format))); err != nil {
		return nil, fmt.Errorf("spill: run header: %w", err)
	}
	rw := &RunWriter{w: w, format: format, pgCap: pageSize, pool: pool}
	if pool != nil {
		pool.Reserve(int64(pageSize))
	}
	return rw, nil
}

// Add appends one merged item. lcp is the string's LCP with the previous
// item of the run (ignored without the LCP column); sat its satellite word
// (ignored without the satellite column). The string is copied — callers
// may recycle its arena as soon as Add returns.
func (rw *RunWriter) Add(s []byte, lcp int32, sat uint64) error {
	if rw.err != nil {
		return rw.err
	}
	if rw.format&wire.RunLCP != 0 && (lcp < 0 || int(lcp) > min(rw.prevLen, len(s))) {
		rw.err = fmt.Errorf("spill: run writer: lcp %d out of range (prev len %d, len %d)", lcp, rw.prevLen, len(s))
		return rw.err
	}
	rw.page = wire.AppendItem(rw.page, rw.format, s, lcp, sat)
	rw.prevLen = len(s)
	rw.inPg++
	if len(rw.page) >= rw.pgCap {
		rw.flushPage()
	}
	return rw.err
}

// flushPage writes the current page: its item count, then its items.
func (rw *RunWriter) flushPage() {
	if rw.inPg == 0 || rw.err != nil {
		return
	}
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(rw.inPg))
	if _, rw.err = rw.w.Write(cnt[:n]); rw.err == nil {
		_, rw.err = rw.w.Write(rw.page)
	}
	rw.inPg = 0
	rw.page = rw.page[:0]
}

// Close flushes the tail page and writes the terminator. It does not close
// the underlying writer. Idempotent.
func (rw *RunWriter) Close() error {
	if rw.done {
		return rw.err
	}
	rw.done = true
	rw.flushPage()
	if rw.err == nil {
		_, rw.err = rw.w.Write([]byte{0})
	}
	if rw.pool != nil {
		rw.pool.Release(int64(rw.pgCap))
		rw.pool = nil
	}
	return rw.err
}

// RunScanner streams a sorted-run file back item by item, through the
// same wire.RunCursor the budgeted merge decodes its runs with.
type RunScanner struct {
	cur    *wire.RunCursor
	format wire.RunFormat
	rerr   error // the reader's own failure, as opposed to a short file
	err    error
	done   bool
}

// NewRunScanner opens a sorted-run stream, validating the header.
func NewRunScanner(r io.Reader) (*RunScanner, error) {
	sc := &RunScanner{}
	var hdr [len(runMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("spill: run header: %w", err)
	}
	if [8]byte(hdr[:8]) != runMagic {
		return nil, ErrRunCorrupt
	}
	sc.format = wire.RunFormat(hdr[8]) & (wire.RunLCP | wire.RunSats)
	buf := make([]byte, 64<<10)
	sc.cur = wire.NewRunCursor(sc.format, func() []byte {
		for {
			n, err := r.Read(buf)
			if n > 0 {
				return buf[:n]
			}
			if err != nil {
				if err != io.EOF {
					sc.rerr = err
				}
				return nil
			}
		}
	})
	return sc, nil
}

// HasLCP reports whether items carry the LCP column.
func (sc *RunScanner) HasLCP() bool { return sc.format&wire.RunLCP != 0 }

// HasSats reports whether items carry the satellite column.
func (sc *RunScanner) HasSats() bool { return sc.format&wire.RunSats != 0 }

// Next returns the next item. ok=false with a nil error means the run
// ended cleanly at its terminator. The returned string is the cursor's
// reused buffer: it is only valid until the next call — copy it to keep
// it.
func (sc *RunScanner) Next() (s []byte, lcp int32, sat uint64, ok bool, err error) {
	for sc.err == nil && !sc.done {
		n, err := sc.cur.Count()
		switch {
		case err != nil:
			sc.err = sc.short("page count", err)
		case n == 0:
			sc.done = true
		case n > maxRunPageItems:
			sc.err = ErrRunCorrupt
		default:
			if s, lcp, sat, ok, err = sc.cur.Next(); ok {
				return s, lcp, sat, true, nil
			}
			if err != nil {
				sc.err = sc.short("item", err)
			}
			sc.cur.Continue()
		}
	}
	return nil, 0, 0, false, sc.err
}

// short reports that part of the file (what) could not be read: a failed
// Read takes precedence over the short file it caused, and a malformed
// one is ErrRunCorrupt.
func (sc *RunScanner) short(what string, err error) error {
	switch {
	case sc.rerr != nil:
		err = sc.rerr
	case errors.Is(err, wire.ErrCorrupt):
		return ErrRunCorrupt
	}
	return fmt.Errorf("spill: run %s: %w", what, err)
}

// maxRunPageItems bounds a page's declared item count, so a corrupt stream
// fails fast; the cursor bounds each string by what an int32 LCP can
// address (math.MaxInt32), and grows its buffer only by bytes that arrive.
const maxRunPageItems = 1 << 30

// ReadRunFile loads a whole sorted-run file into memory — a convenience
// for tests and for diffing a budgeted run against an in-RAM one.
func ReadRunFile(r io.Reader) (ss [][]byte, lcps []int32, sats []uint64, err error) {
	sc, err := NewRunScanner(r)
	if err != nil {
		return nil, nil, nil, err
	}
	for {
		s, lcp, sat, ok, err := sc.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			break
		}
		ss = append(ss, append([]byte(nil), s...))
		if sc.HasLCP() {
			lcps = append(lcps, lcp)
		}
		if sc.HasSats() {
			sats = append(sats, sat)
		}
	}
	return ss, lcps, sats, nil
}
