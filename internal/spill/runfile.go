// The sorted-run file format: what a budgeted worker writes instead of
// accumulating its merged output arena. The format is streaming on both
// sides — the writer needs no counts up front (unlike the Step-3 wire
// framing, which declares its string count first), the reader needs no
// index — and it front-codes each string against its predecessor, so a
// sorted run with long shared prefixes costs little more on disk than the
// LCP-compressed exchange payload did on the wire.
//
// Layout:
//
//	"DSSRUN1\n"  8-byte magic
//	flags        1 byte: bit0 = items carry an LCP column,
//	                     bit1 = items carry a satellite column
//	pages        uvarint itemCount > 0, then itemCount items:
//	               [uvarint lcp]  (only with bit0; front-coded prefix length)
//	               [uvarint sat]  (only with bit1)
//	               uvarint suffixLen, suffixLen bytes
//	terminator   uvarint 0
//
// Without the LCP column every item stores its full bytes (lcp fixed 0).
// The front coding runs across page boundaries: prev is the previous item
// of the whole run, like the wire format's LCP rematerialization.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dss/internal/wire"
)

var runMagic = [8]byte{'D', 'S', 'S', 'R', 'U', 'N', '1', '\n'}

const (
	runFlagLCP = 1 << 0
	runFlagSat = 1 << 1
)

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
	w     io.Writer
	opts  RunWriterOpts
	page  []byte
	inPg  int // items encoded into the current page
	prev  []byte
	pool  *Pool
	pgCap int
	err   error
	done  bool
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
	var flags byte
	if opts.LCP {
		flags |= runFlagLCP
	}
	if opts.Sats {
		flags |= runFlagSat
	}
	hdr := append(append([]byte{}, runMagic[:]...), flags)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("spill: run header: %w", err)
	}
	rw := &RunWriter{w: w, opts: opts, pgCap: pageSize, pool: pool}
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
	if rw.inPg == 0 {
		rw.page = rw.page[:0]
	}
	if rw.opts.LCP {
		if lcp < 0 || int(lcp) > len(rw.prev) {
			rw.err = fmt.Errorf("spill: run writer: lcp %d out of range (prev len %d)", lcp, len(rw.prev))
			return rw.err
		}
		rw.page = binary.AppendUvarint(rw.page, uint64(lcp))
	} else {
		lcp = 0
	}
	if rw.opts.Sats {
		rw.page = binary.AppendUvarint(rw.page, sat)
	}
	suffix := s[lcp:]
	rw.page = binary.AppendUvarint(rw.page, uint64(len(suffix)))
	rw.page = append(rw.page, suffix...)
	rw.prev = append(rw.prev[:int(lcp)], suffix...)
	rw.inPg++
	if len(rw.page) >= rw.pgCap {
		rw.flushPage()
	}
	return rw.err
}

func (rw *RunWriter) flushPage() {
	if rw.inPg == 0 || rw.err != nil {
		return
	}
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(rw.inPg))
	if _, err := rw.w.Write(cnt[:n]); err == nil {
		_, err = rw.w.Write(rw.page)
		rw.err = err
	} else {
		rw.err = err
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
// same span window the budgeted merge decodes its runs with.
type RunScanner struct {
	w      *wire.Window
	rerr   error // the reader's own failure, as opposed to a short file
	hasLCP bool
	hasSat bool
	left   int // items remaining in the current page
	prev   []byte
	err    error
	done   bool
}

// NewRunScanner opens a sorted-run stream, validating the header.
func NewRunScanner(r io.Reader) (*RunScanner, error) {
	sc := &RunScanner{}
	buf := make([]byte, 64<<10)
	sc.w = wire.NewWindow(func() []byte {
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
	hdr, err := sc.w.Append(make([]byte, 0, 9), 9)
	if err != nil {
		return nil, sc.short("header", err)
	}
	if [8]byte(hdr[:8]) != runMagic {
		return nil, ErrRunCorrupt
	}
	sc.hasLCP = hdr[8]&runFlagLCP != 0
	sc.hasSat = hdr[8]&runFlagSat != 0
	return sc, nil
}

// short reports that part of the file (what) could not be read; a failed
// Read takes precedence over the short file it caused.
func (sc *RunScanner) short(what string, err error) error {
	if sc.rerr != nil {
		err = sc.rerr
	}
	return fmt.Errorf("spill: run %s: %w", what, err)
}

// fail ends the scan with err.
func (sc *RunScanner) fail(err error) ([]byte, int32, uint64, bool, error) {
	sc.err = err
	return nil, 0, 0, false, err
}

// HasLCP reports whether items carry the LCP column.
func (sc *RunScanner) HasLCP() bool { return sc.hasLCP }

// HasSats reports whether items carry the satellite column.
func (sc *RunScanner) HasSats() bool { return sc.hasSat }

// Next returns the next item. ok=false with a nil error means the run
// ended cleanly at its terminator. The returned string aliases the
// scanner's reused prev buffer: it is only valid until the next call —
// copy it to keep it.
func (sc *RunScanner) Next() (s []byte, lcp int32, sat uint64, ok bool, err error) {
	if sc.err != nil || sc.done {
		return nil, 0, 0, false, sc.err
	}
	if sc.left == 0 {
		n, err := sc.w.Uvarint()
		if err != nil {
			return sc.fail(sc.short("page count", err))
		}
		if n == 0 {
			sc.done = true
			return nil, 0, 0, false, nil
		}
		if n > maxRunPageItems {
			return sc.fail(ErrRunCorrupt)
		}
		sc.left = int(n)
	}
	sc.left--
	var h uint64
	if sc.hasLCP {
		if h, err = sc.w.Uvarint(); err != nil {
			return sc.fail(sc.short("item", err))
		}
		if h > uint64(len(sc.prev)) {
			return sc.fail(ErrRunCorrupt)
		}
	}
	if sc.hasSat {
		if sat, err = sc.w.Uvarint(); err != nil {
			return sc.fail(sc.short("item", err))
		}
	}
	slen, err := sc.w.Uvarint()
	if err != nil {
		return sc.fail(sc.short("item", err))
	}
	if slen > maxSectionLen {
		return sc.fail(ErrRunCorrupt)
	}
	// prev grows by the suffix bytes that arrive, never to the declared
	// length up front: a corrupt length must not buy an allocation.
	if sc.prev, err = sc.w.Append(sc.prev[:h], slen); err != nil {
		return sc.fail(sc.short("item", err))
	}
	return sc.prev, int32(h), sat, true, nil
}

// maxRunPageItems and maxSectionLen bound declared counts so a corrupt
// stream fails fast instead of allocating unboundedly (mirrors the wire
// package's section bound).
const (
	maxRunPageItems = 1 << 30
	maxSectionLen   = 1<<31 - 1
)

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
