package input

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
)

// countReaderAt counts the bytes read through it and the lowest and highest
// offsets they came from.
type countReaderAt struct {
	io.ReaderAt
	N        int64
	from, to int64 // the reads' extent; from > to before the first read
}

func newCountReaderAt(r io.ReaderAt) *countReaderAt {
	return &countReaderAt{ReaderAt: r, from: 1 << 62, to: -1}
}

func (c *countReaderAt) ReadAt(buf []byte, off int64) (int, error) {
	n, err := c.ReaderAt.ReadAt(buf, off)
	c.N += int64(n)
	if n > 0 {
		c.from, c.to = min(c.from, off), max(c.to, off+int64(n))
	}
	return n, err
}

// oracleLines is the file's lines with each one's first byte, read through
// LineReader.
func oracleLines(t *testing.T, file []byte) (lines []string, starts []int) {
	t.Helper()
	lr := NewLineReader(bytes.NewReader(file), 0)
	off := 0
	for {
		chunk, err := lr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			return lines, starts
		}
		for _, l := range chunk {
			lines, starts = append(lines, string(l)), append(starts, off)
			off += len(l) + 1
		}
	}
}

// checkRange splits file over p PEs and checks that PE r holds exactly the
// lines whose first byte lies in [r·S/p, (r+1)·S/p), in file order, and
// that it read at most its range, the byte before it and twice the rest of
// its last line, all from the window between those bounds.
func checkRange(t *testing.T, file []byte, p int) {
	t.Helper()
	want, starts := oracleLines(t, file)
	size := len(file)
	next := 0 // the next line of the oracle
	for pe := 0; pe < p; pe++ {
		lo, hi := pe*size/p, (pe+1)*size/p
		cr := newCountReaderAt(bytes.NewReader(file))
		got, err := Range(cr, int64(size), pe, p)
		if err != nil {
			t.Fatalf("p=%d pe=%d: %v", p, pe, err)
		}
		for _, l := range got {
			if next == len(want) || string(l) != want[next] {
				t.Fatalf("p=%d pe=%d: line %q, want line %d of %d", p, pe, l, next, len(want))
			}
			if starts[next] < lo || starts[next] >= hi {
				t.Fatalf("p=%d pe=%d: line %d starts at %d, outside [%d, %d)", p, pe, next, starts[next], lo, hi)
			}
			next++
		}
		if next < len(want) && starts[next] < hi {
			t.Fatalf("p=%d pe=%d: line %d at %d is missing", p, pe, next, starts[next])
		}
		// The rest of a last line that runs past the range, newline included.
		rest := 0
		if len(got) > 0 && hi < size && file[hi-1] != '\n' {
			if i := bytes.IndexByte(file[hi:], '\n'); i >= 0 {
				rest = i + 1
			} else {
				rest = size - hi
			}
		}
		from := max(lo-1, 0)
		if lo == hi {
			from = hi
		}
		if limit := int64(hi - from + 2*rest); cr.N > limit {
			t.Fatalf("p=%d pe=%d: read %d bytes, at most %d allowed (range [%d, %d), rest %d)", p, pe, cr.N, limit, lo, hi, rest)
		}
		if cr.N > 0 && (cr.from < int64(from) || cr.to > int64(hi+2*rest)) {
			t.Fatalf("p=%d pe=%d: read [%d, %d), outside [%d, %d)", p, pe, cr.from, cr.to, from, hi+2*rest)
		}
	}
	if next != len(want) {
		t.Fatalf("p=%d: the PEs hold %d lines, the file has %d", p, next, len(want))
	}
}

// TestRangeSplitsLikeLineReader checks every file shape of the line reader's
// tests at p = 1…9. The split's edge cases are FuzzRange's checked-in seeds
// under testdata/fuzz/FuzzRange, which every go test runs: no lines, no
// trailing newline, only newlines, a line longer than a range (a PE with no
// lines), more PEs than lines, and a range that ends on a line start.
func TestRangeSplitsLikeLineReader(t *testing.T) {
	for fi, file := range splitFiles() {
		for p := 1; p <= 9; p++ {
			t.Run(fmt.Sprintf("file%d/p%d", fi, p), func(t *testing.T) { checkRange(t, []byte(file), p) })
		}
	}
}

// TestRangeConcurrent runs every PE's read at once on one reader, the way
// dss-sort does, and checks that the PEs' lines in order are the file's.
func TestRangeConcurrent(t *testing.T) {
	files := splitFiles()
	file := []byte(files[len(files)-1])
	want, _ := oracleLines(t, file)
	const p = 8
	r := bytes.NewReader(file)
	parts := make([][][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for pe := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[pe], errs[pe] = Range(r, int64(len(file)), pe, p)
		}()
	}
	wg.Wait()
	var got []string
	for pe, lines := range parts {
		if errs[pe] != nil {
			t.Fatalf("pe %d: %v", pe, errs[pe])
		}
		for _, l := range lines {
			got = append(got, string(l))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d lines from %d PEs, want the file's %d", len(got), p, len(want))
	}
}

// TestRangeCopiesOnce pins that a range whose last line ends on its last
// byte takes two allocations, the arena and the header array: the lines
// are cut where the read put them.
func TestRangeCopiesOnce(t *testing.T) {
	file := []byte("one\ntwo\nthree\nfour\n")
	r := bytes.NewReader(file)
	var lines [][]byte
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if lines, err = Range(r, int64(len(file)), 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 || len(lines) != 4 || cap(lines) != 4 {
		t.Fatalf("%v allocations for %d lines in a header array of %d, want 2, 4 and 4", allocs, len(lines), cap(lines))
	}
}

// TestRangeShortRead checks that an input shorter than its stated size
// fails instead of losing lines.
func TestRangeShortRead(t *testing.T) {
	file := []byte("one\ntwo\n")
	for pe := 0; pe < 2; pe++ {
		if _, err := Range(bytes.NewReader(file), int64(len(file))+4, pe, 2); err != io.ErrUnexpectedEOF {
			t.Fatalf("pe %d: got %v, want %v", pe, err, io.ErrUnexpectedEOF)
		}
	}
}

// FuzzRange checks the split of arbitrary bytes over 1…9 PEs against
// LineReader, and each PE's reads against its bound.
func FuzzRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte, p uint8) {
		checkRange(t, file, 1+int(p%9))
	})
}

// BenchmarkRange reads one PE's share of a 4-PE split of the 200 000-line
// COMMONCRAWL-like file BenchmarkLineReader reads whole.
func BenchmarkRange(b *testing.B) {
	const pe, p = 1, 4
	file := benchFile(CommonCrawlLike(CCConfig{LinesPerPE: 200_000, Seed: 1}, 0, 1))
	r := bytes.NewReader(file)
	size := int64(len(file))
	b.SetBytes(rangeStart(size, pe+1, p) - rangeStart(size, pe, p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines, err := Range(r, size, pe, p)
		if err != nil {
			b.Fatal(err)
		}
		sink = len(lines)
	}
}
