// Pull decoding of front-coded byte sequences that arrive in spans: a
// Window is a read position over spans pulled from a fill function, and a
// RunCursor decodes one encoded Step-3 run on it, ONE string per pull, into
// a single reused buffer. A budgeted run therefore stays in its encoded
// form — in RAM and in its page file — until the merge asks for its next
// string, and the sorted-run scanner of the spill layer reads its file
// through the same Window. The decoded output is identical, string for
// string and LCP for LCP, to the corresponding one-shot decoder
// (DecodeStrings / DecodeStringsLCP): a memory budget must not change a
// single byte of what the merge sees.
//
// Aliasing contract: a span only has to stay valid until fill is called
// for the next one — a Window asks for it only once it has consumed the
// current span to its last byte — and nothing a Window or RunCursor returns
// aliases a span: bytes are copied into the caller's or the cursor's own
// buffer. The string RunCursor.Next returns is that buffer, valid until the
// next pull, which is exactly what merge.Source promises a MergeSink (see
// there).
package wire

import (
	"encoding/binary"
	"io"
)

// RunFormat identifies the wire layout of one exchanged run for pull
// decoding. The layouts are exactly the ones the sorters' Step-3 encoders
// produce; RunCursor must track every format change made there.
type RunFormat int

const (
	// RunStrings is the EncodeStrings layout: count, then length-prefixed
	// strings (MS-simple and FKmerge).
	RunStrings RunFormat = iota
	// RunStringsLCP is the EncodeStringsLCP layout: count, then per string
	// the LCP with the predecessor and the remaining suffix (MS, and the
	// prefix blob of a PDMS bucket).
	RunStringsLCP
)

// Window reads a byte sequence front to back from the spans fill returns,
// in order; an empty span ends the sequence. Its errors are the io
// package's: io.EOF when the sequence ends before a value's first byte,
// io.ErrUnexpectedEOF when it ends inside one. Confined to one goroutine.
type Window struct {
	fill func() []byte
	b    []byte // unconsumed rest of the current span
}

// NewWindow returns a window at the start of fill's sequence.
func NewWindow(fill func() []byte) *Window { return &Window{fill: fill} }

// ReadByte consumes one byte (io.ByteReader). fill is only called with the
// current span fully consumed, so no tail outlives its span.
func (w *Window) ReadByte() (byte, error) {
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
func (w *Window) Uvarint() (uint64, error) {
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
func (w *Window) Append(dst []byte, n uint64) ([]byte, error) {
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

// RunCursor decodes one encoded run from a Window, one string per Next. It
// fails where the one-shot decoders fail — ErrTruncated when the bytes run
// out, ErrCorrupt on a bad varint or LCP — and like them ignores whatever
// follows the run's last string.
type RunCursor struct {
	w      *Window
	format RunFormat
	opened bool   // count header read
	count  uint64 // declared string count
	read   uint64 // strings decoded so far
	cur    []byte // the current string; reused by every Next
	err    error
}

// NewRunCursor returns a cursor over one run in the given format, read
// from the spans fill returns (see Window).
func NewRunCursor(format RunFormat, fill func() []byte) *RunCursor {
	// cur starts non-nil so that every decoded string — including an empty
	// string at the very start of the run — is a non-nil slice, like the
	// one-shot decoders produce. A nil head would read as the loser tree's
	// +∞ exhausted sentinel and silently drop the rest of the run.
	return &RunCursor{w: NewWindow(fill), format: format, cur: []byte{}}
}

// fail records the run's first error in the decoders' vocabulary.
func (c *RunCursor) fail(err error) error {
	c.err = ErrCorrupt
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		c.err = ErrTruncated
	}
	return c.err
}

// Count returns the run's declared string count, reading the header if no
// Next has done so yet.
func (c *RunCursor) Count() (uint64, error) {
	if !c.opened {
		c.opened = true
		var err error
		if c.count, err = c.w.Uvarint(); err != nil {
			c.fail(err)
		}
	}
	return c.count, c.err
}

// Next decodes the run's next string and its LCP with the previous one (0
// for the first, and always 0 for RunStrings). ok=false with a nil error
// means the run is complete. s is the cursor's one buffer: valid, and
// unchanged, only until the next call.
func (c *RunCursor) Next() (s []byte, lcp int32, ok bool, err error) {
	if n, err := c.Count(); err != nil || c.read == n {
		return nil, 0, false, err
	}
	var h uint64
	if c.format == RunStringsLCP {
		if h, err = c.w.Uvarint(); err != nil {
			return nil, 0, false, c.fail(err)
		}
		// Mirror the one-shot validation: the first string carries no
		// prefix, and no prefix may exceed the predecessor's length.
		if (c.read == 0 && h != 0) || h > uint64(len(c.cur)) {
			return nil, 0, false, c.fail(nil)
		}
	}
	n, err := c.w.Uvarint()
	if err == nil {
		c.cur, err = c.w.Append(c.cur[:h], n)
	}
	if err != nil {
		return nil, 0, false, c.fail(err)
	}
	c.read++
	return c.cur, int32(h), true, nil
}
