package input

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// splitFiles are the file shapes the reader is checked on, and the seed
// corpus of FuzzLineReader.
func splitFiles() []string {
	rng := rand.New(rand.NewSource(7))
	files := []string{
		"",
		"\n",
		"a",
		"a\n",
		"a\nbb\nccc\n",
		"a\n\nb\n",                              // empty interior line survives
		strings.Repeat("x", 5000) + "\nshort\n", // line larger than any chunk
	}
	// A bigger random file: lines of length 0..80.
	var big strings.Builder
	for i := 0; i < 2000; i++ {
		for k := rng.Intn(81); k > 0; k-- {
			big.WriteByte(byte('a' + rng.Intn(26)))
		}
		big.WriteByte('\n')
	}
	return append(files, big.String())
}

// wantLines is the newline split of file: a trailing newline terminates the
// last line instead of opening an empty one.
func wantLines(file string) []string {
	if file == "" {
		return nil
	}
	want := strings.Split(file, "\n")
	if want[len(want)-1] == "" {
		want = want[:len(want)-1]
	}
	return want
}

// readers wraps the file in readers that return full, half and one-byte
// reads, so lines cross every kind of read boundary.
var readers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"half", iotest.HalfReader},
	{"onebyte", iotest.OneByteReader},
}

// checkLineReader drains file through a LineReader and checks that the line
// sequence is exactly the newline split, with every chunk's lines within the
// bound (except a single oversized line, which is allowed to travel alone).
func checkLineReader(t *testing.T, file string, chunk int, r io.Reader) {
	t.Helper()
	lr := NewLineReader(r, chunk)
	var got []string
	for {
		lines, err := lr.Next()
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if lines == nil {
			break
		}
		total := 0
		oversize := false
		for _, l := range lines {
			got = append(got, string(l))
			total += len(l)
			if len(l) > chunk {
				oversize = true
			}
		}
		if total > chunk && !(oversize && len(lines) == 1) {
			t.Fatalf("chunk %d: arena %d bytes over bound with %d lines", chunk, total, len(lines))
		}
	}
	want := wantLines(file)
	if len(got) != len(want) {
		t.Fatalf("chunk %d: got %d lines, want %d", chunk, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk %d line %d: got %q want %q", chunk, i, got[i], want[i])
		}
	}
}

// TestLineReaderMatchesSplit feeds files of varying shapes through the
// chunked reader at several chunk sizes and read granularities.
func TestLineReaderMatchesSplit(t *testing.T) {
	for fi, file := range splitFiles() {
		for _, chunk := range []int{1, 7, 64, 1024, 1 << 20} {
			for _, rd := range readers {
				t.Run(fmt.Sprintf("file%d/%d/%s", fi, chunk, rd.name), func(t *testing.T) {
					checkLineReader(t, file, chunk, rd.wrap(strings.NewReader(file)))
				})
			}
		}
	}
}

// TestLineReaderBlockEdges places a line end exactly on the arena's edge:
// a newline as the arena's last byte, a final unterminated line that crosses
// the edge, and a line of exactly chunk bytes.
func TestLineReaderBlockEdges(t *testing.T) {
	for _, chunk := range []int{1, 2, 7, 64, 1024} {
		x := func(c byte, n int) string { return strings.Repeat(string(c), n) }
		files := map[string]string{
			"newline-last":      x('a', chunk-1) + "\n" + x('b', chunk-1) + "\n" + "c\n",
			"final-crosses":     "a\n" + x('q', chunk+3),
			"final-crosses-2":   x('a', chunk-1) + "\n" + x('q', 2*chunk+1),
			"exactly-chunk":     x('c', chunk) + "\n" + "d\n",
			"exactly-chunk-end": "d\n" + x('c', chunk),
			"two-exact":         x('c', chunk) + "\n" + x('e', chunk) + "\n",
		}
		for name, file := range files {
			for _, rd := range readers {
				t.Run(fmt.Sprintf("%d/%s/%s", chunk, name, rd.name), func(t *testing.T) {
					checkLineReader(t, file, chunk, rd.wrap(strings.NewReader(file)))
				})
			}
		}
	}
}

// TestLineReaderReadError checks that a read error ends the stream with that
// error, on that and every later call, after only lines the file holds.
func TestLineReaderReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	file := "one\ntwo\nthree\nfour\n"
	for _, chunk := range []int{1, 4, 1 << 20} {
		lr := NewLineReader(io.MultiReader(strings.NewReader(file), iotest.ErrReader(boom)), chunk)
		var got []string
		var err error
		for i := 0; i < 100 && err == nil; i++ {
			var lines [][]byte
			lines, err = lr.Next()
			if err == nil && lines == nil {
				t.Fatalf("chunk %d: clean end of stream, want %v", chunk, boom)
			}
			for _, l := range lines {
				got = append(got, string(l))
			}
		}
		if !errors.Is(err, boom) {
			t.Fatalf("chunk %d: got %v, want %v", chunk, err, boom)
		}
		if _, again := lr.Next(); !errors.Is(again, boom) {
			t.Fatalf("chunk %d: second call returned %v, want %v", chunk, again, boom)
		}
		want := wantLines(file)
		if len(got) > len(want) {
			t.Fatalf("chunk %d: %d lines before the error, the file has %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d line %d: got %q want %q", chunk, i, got[i], want[i])
			}
		}
	}
}

// FuzzLineReader checks arbitrary file bytes at arbitrary small chunk sizes
// against strings.Split, through whole and one-byte reads.
func FuzzLineReader(f *testing.F) {
	for _, file := range splitFiles() {
		for _, chunk := range []uint16{1, 7, 64} {
			f.Add([]byte(file), chunk)
		}
	}
	f.Fuzz(func(t *testing.T, file []byte, chunk uint16) {
		c := 1 + int(chunk%512)
		checkLineReader(t, string(file), c, bytes.NewReader(file))
		checkLineReader(t, string(file), c, iotest.OneByteReader(bytes.NewReader(file)))
	})
}

// TestLineReaderReadAll drains a reader chunk by chunk and checks the
// concatenated lines against a direct split.
func TestLineReaderReadAll(t *testing.T) {
	file := "one\ntwo\nthree"
	lr := NewLineReader(strings.NewReader(file), 4)
	var all [][]byte
	for {
		chunk, err := lr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		all = append(all, chunk...)
	}
	want := []string{"one", "two", "three"}
	if len(all) != len(want) {
		t.Fatalf("got %d lines, want %d", len(all), len(want))
	}
	for i := range want {
		if string(all[i]) != want[i] {
			t.Fatalf("line %d: got %q want %q", i, all[i], want[i])
		}
	}
}

// TestBatchesStridedEquivalence checks that streaming the DN instance over
// virtual PEs emits exactly the monolithic instance's string multiset (DN
// assigns strings by stride, so the union over batches is the p=1 set).
func TestBatchesStridedEquivalence(t *testing.T) {
	const n, batchCount = 120, 6
	mono := DN(DNConfig{StringsPerPE: n, Length: 40, Ratio: 0.5, Seed: 3}, 0, 1)

	gen := func(pe, p int) [][]byte {
		return DN(DNConfig{StringsPerPE: n / batchCount, Length: 40, Ratio: 0.5, Seed: 3}, pe, p)
	}
	var streamed [][]byte
	batches := 0
	err := Batches(gen, batchCount, func(ss [][]byte) error {
		if len(ss) != n/batchCount {
			t.Fatalf("batch of %d strings, want %d", len(ss), n/batchCount)
		}
		streamed = append(streamed, ss...)
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != batchCount {
		t.Fatalf("emit called %d times, want %d", batches, batchCount)
	}
	if len(streamed) != len(mono) {
		t.Fatalf("streamed %d strings, want %d", len(streamed), len(mono))
	}
	count := map[string]int{}
	for _, s := range mono {
		count[string(s)]++
	}
	for _, s := range streamed {
		count[string(s)]--
		if count[string(s)] < 0 {
			t.Fatalf("streamed string %q not in monolithic instance", s)
		}
	}
	for s, c := range count {
		if c != 0 {
			t.Fatalf("monolithic string %q missing from stream (count %d)", s, c)
		}
	}
	// And the strided order is a permutation, not the identity: the modes
	// genuinely differ in emission order.
	if bytes.Equal(streamed[1], mono[1]) && bytes.Equal(streamed[2], mono[2]) {
		t.Fatalf("streamed order unexpectedly identical to monolithic order")
	}
}

// sink keeps the benchmarked reads from being optimised away.
var sink int

// benchFile joins lines into one newline-terminated file image.
func benchFile(lines [][]byte) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.Write(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// BenchmarkLineReader drains a whole file through the reader at the default
// chunk size, the way dss-sort reads its input: 200 000 COMMONCRAWL-like
// lines (~40 bytes each) and 200 000 D/N lines of 200 characters.
func BenchmarkLineReader(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func() [][]byte
	}{
		{"cc", func() [][]byte { return CommonCrawlLike(CCConfig{LinesPerPE: 200_000, Seed: 1}, 0, 1) }},
		{"dn200", func() [][]byte {
			return DN(DNConfig{StringsPerPE: 200_000, Length: 200, Ratio: 0.25, Seed: 1}, 0, 1)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			file := benchFile(bc.gen())
			b.SetBytes(int64(len(file)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lr := NewLineReader(bytes.NewReader(file), 0)
				n := 0
				for {
					chunk, err := lr.Next()
					if err != nil {
						b.Fatal(err)
					}
					if chunk == nil {
						break
					}
					n += len(chunk)
				}
				sink = n
			}
		})
	}
}
