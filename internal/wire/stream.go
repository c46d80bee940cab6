// Pull decoding of runs that arrive in spans: a window is a read position
// over spans pulled from a fill function, and a RunCursor decodes runs on
// it ONE item per pull, into a single reused buffer. A budgeted run
// therefore stays in its encoded form — in RAM and in its page file — until
// the merge asks for its next string, and the sorted-run scanner of the
// spill layer reads its file, page by page, through a cursor too. The
// decoded output is identical, string for string, LCP for LCP and satellite
// for satellite, to the one-shot decoder (DecodeRun): a memory budget must
// not change a single byte of what the merge sees.
//
// Aliasing contract: a span only has to stay valid until fill is called
// for the next one — a window asks for it only once it has consumed the
// current span to its last byte — and nothing a RunCursor returns aliases a
// span: bytes are copied into the cursor's own buffer. The string
// RunCursor.Next returns is that buffer, valid until the next pull, which
// is exactly what merge.Source promises a MergeSink (see there).
package wire

import (
	"encoding/binary"
	"io"
	"math"
)

// RunFormat is the set of optional item columns a run holds (see the
// package comment for the layout). Its bits are the column flags of a
// sorted-run file's header.
type RunFormat uint8

const (
	// RunLCP: every item carries its LCP with the run's previous string,
	// and only the characters after it.
	RunLCP RunFormat = 1 << iota
	// RunSats: every item carries a satellite word.
	RunSats
	// RunStrings holds neither column: every item is its full string.
	RunStrings RunFormat = 0
)

// window reads a byte sequence front to back from the spans fill returns,
// in order; an empty span ends the sequence. Its errors are the io
// package's: io.EOF when the sequence ends before a value's first byte,
// io.ErrUnexpectedEOF when it ends inside one. Confined to one goroutine.
type window struct {
	fill func() []byte
	b    []byte // unconsumed rest of the current span
}

// ReadByte consumes one byte (io.ByteReader). fill is only called with the
// current span fully consumed, so no tail outlives its span.
func (w *window) ReadByte() (byte, error) {
	if len(w.b) == 0 {
		if w.b = w.fill(); len(w.b) == 0 {
			return 0, io.EOF
		}
	}
	c := w.b[0]
	w.b = w.b[1:]
	return c, nil
}

// Uvarint consumes one unsigned varint.
func (w *window) Uvarint() (uint64, error) {
	if v, n := binary.Uvarint(w.b); n > 0 {
		w.b = w.b[n:]
		return v, nil
	}
	// The varint straddles a span boundary, overflows 64 bits or the
	// sequence ends: byte by byte, which tells the three apart.
	return binary.ReadUvarint(w)
}

// Append consumes the next n bytes and appends them to dst. dst grows only
// by bytes that arrived, never by the declared n, so a corrupt length
// costs no more memory than the sequence is long.
func (w *window) Append(dst []byte, n uint64) ([]byte, error) {
	for {
		take := int(min(n, uint64(len(w.b))))
		dst = append(dst, w.b[:take]...)
		w.b = w.b[take:]
		if n -= uint64(take); n == 0 {
			return dst, nil
		}
		if w.b = w.fill(); len(w.b) == 0 {
			return dst, io.ErrUnexpectedEOF
		}
	}
}

// RunCursor decodes encoded runs from a byte sequence, one item per Next.
// It fails where the one-shot decoder fails — ErrTruncated when the bytes
// run out, ErrCorrupt on a bad varint or LCP — and also on a string longer
// than an int32 LCP can address; like the one-shot decoder it ignores
// whatever follows the run's last item. Continue reads a further run that
// follows in the same sequence.
type RunCursor struct {
	w      window
	format RunFormat
	opened bool   // count header read
	count  uint64 // declared item count
	read   uint64 // items decoded so far
	cur    []byte // the current string; reused by every Next
	err    error
}

// NewRunCursor returns a cursor over a run of the given format, read from
// the spans fill returns (see the package's aliasing contract).
func NewRunCursor(format RunFormat, fill func() []byte) *RunCursor {
	// cur starts non-nil so that every decoded string — including an empty
	// string at the very start of the run — is a non-nil slice, like the
	// one-shot decoder produces. A nil head would read as the loser tree's
	// +∞ exhausted sentinel and silently drop the rest of the run.
	return &RunCursor{w: window{fill: fill}, format: format, cur: []byte{}}
}

// fail records the run's first error in the decoders' vocabulary.
func (c *RunCursor) fail(err error) error {
	c.err = ErrCorrupt
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		c.err = ErrTruncated
	}
	return c.err
}

// Count returns the run's declared item count, reading the header if no
// Next has done so yet.
func (c *RunCursor) Count() (uint64, error) {
	if !c.opened {
		c.open()
	}
	return c.count, c.err
}

// open reads the run's count header.
func (c *RunCursor) open() {
	c.opened = true
	var err error
	if c.count, err = c.w.Uvarint(); err != nil {
		c.fail(err)
	}
}

// Continue moves the cursor, its run complete, to the run that follows it
// in the sequence, whose front coding continues from this run's last
// string: the pages of a sorted-run file.
func (c *RunCursor) Continue() { c.opened, c.read = false, 0 }

// Next decodes the run's next item: its string, its LCP with the previous
// string (0 for the first of the sequence and without RunLCP) and its
// satellite (0 without RunSats). ok=false with a nil error means the run
// is complete. s is the cursor's one buffer: valid, and unchanged, only
// until the next call.
func (c *RunCursor) Next() (s []byte, lcp int32, sat uint64, ok bool, err error) {
	if n, err := c.Count(); err != nil || c.read == n {
		return nil, 0, 0, false, err
	}
	var h uint64
	if c.format&RunLCP != 0 {
		if h, err = c.w.Uvarint(); err != nil {
			return nil, 0, 0, false, c.fail(err)
		}
		// Mirror the one-shot validation: no prefix may exceed the
		// predecessor's length (so the first string carries none).
		if h > uint64(len(c.cur)) {
			return nil, 0, 0, false, c.fail(nil)
		}
	}
	if c.format&RunSats != 0 {
		if sat, err = c.w.Uvarint(); err != nil {
			return nil, 0, 0, false, c.fail(err)
		}
	}
	n, err := c.w.Uvarint()
	if err == nil && n > math.MaxInt32-h {
		err = ErrCorrupt
	}
	if err == nil {
		c.cur, err = c.w.Append(c.cur[:h], n)
	}
	if err != nil {
		return nil, 0, 0, false, c.fail(err)
	}
	c.read++
	return c.cur, int32(h), sat, true, nil
}
