package input

import (
	"bytes"
	"io"
)

// DefaultChunkBytes is the arena size LineReader targets per chunk when the
// caller passes 0.
const DefaultChunkBytes = 1 << 20

// LineReader reads newline-separated strings from r in bounded chunks: each
// Next call returns the lines whose bytes fit into one arena of roughly
// chunkBytes, backed by a single allocation instead of one per line. It is
// the chunked-input half of the out-of-core pipeline — the caller's peak
// temporary footprint per call is one chunk, not the whole file — and also
// the fast path for in-RAM runs.
//
// Next reads straight into the chunk's arena and splits the lines in place,
// so every input byte is copied once, by the read itself; only the partial
// line at the arena's end is copied again, into the next arena.
//
// A line longer than chunkBytes is returned alone in an oversized chunk;
// lines are never split. The final line may lack a trailing newline.
type LineReader struct {
	r     io.Reader
	chunk int
	carry []byte // bytes read past the previous chunk's last line
	err   error  // the first error r returned (io.EOF at the end of input)
}

// NewLineReader returns a LineReader over r with the given per-chunk byte
// target (0 = DefaultChunkBytes).
func NewLineReader(r io.Reader, chunkBytes int) *LineReader {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &LineReader{r: r, chunk: chunkBytes}
}

// Next returns the next chunk of lines, or (nil, nil) after the last line.
// The returned slices share one arena owned by the caller; the reader keeps
// no reference to them. A read error other than io.EOF is returned as is,
// by this and every later call.
func (lr *LineReader) Next() ([][]byte, error) {
	if lr.err != nil && lr.err != io.EOF {
		return nil, lr.err
	}
	if lr.err == io.EOF && len(lr.carry) == 0 {
		return nil, nil
	}
	buf := make([]byte, max(lr.chunk, len(lr.carry)))
	n := lr.fill(buf, copy(buf, lr.carry))
	lr.carry = nil
	// A full arena without a newline holds the start of an oversized line:
	// double it until the line ends, then the line ships alone.
	for scanned := 0; n == len(buf) && lr.err == nil && bytes.IndexByte(buf[scanned:], '\n') < 0; {
		scanned = n
		grown := make([]byte, 2*len(buf))
		copy(grown, buf)
		buf = grown
		n = lr.fill(buf, n)
	}
	if lr.err != nil && lr.err != io.EOF {
		return nil, lr.err
	}
	lines := make([][]byte, 0, bytes.Count(buf[:n], []byte{'\n'})+1)
	used, start := 0, 0
	for start < n {
		end := bytes.IndexByte(buf[start:n], '\n')
		next := start + end + 1
		if end < 0 {
			if lr.err == nil {
				break // a partial line: it opens the next arena
			}
			end, next = n-start, n // the final line, without a newline
		}
		if len(lines) > 0 && used+end > lr.chunk {
			break
		}
		lines = append(lines, buf[start:start+end:start+end])
		used += end
		start = next
	}
	if start < n {
		lr.carry = buf[start:n]
	}
	return lines, nil
}

// fill reads from r into buf[n:] until buf is full or r fails, records the
// error, and returns the new fill level.
func (lr *LineReader) fill(buf []byte, n int) int {
	for empty := 0; n < len(buf) && lr.err == nil; {
		m, err := lr.r.Read(buf[n:])
		n += m
		lr.err = err
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			lr.err = io.ErrNoProgress
		}
	}
	return n
}

// A Generator produces PE pe's fragment of a deterministic instance over p
// PEs (all package generators fit after currying their config).
type Generator func(pe, p int) [][]byte

// Batches streams the instance that gen defines over `batches` virtual PEs,
// invoking emit once per fragment in order and releasing each fragment
// before generating the next. Peak memory is one fragment, so a workload of
// any size can be written to disk under a bounded footprint (the streaming
// mode of cmd/dss-gen). The emitted instance is exactly gen's p=batches
// instance; for the strided generators (DN, DNSkewed, SuffixInstance) that
// is the same global string set as the p=1 instance, merely emitted in
// strided order.
func Batches(gen Generator, batches int, emit func([][]byte) error) error {
	if batches < 1 {
		batches = 1
	}
	for pe := 0; pe < batches; pe++ {
		if err := emit(gen(pe, batches)); err != nil {
			return err
		}
	}
	return nil
}
