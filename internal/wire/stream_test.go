package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dss/internal/input"
	"dss/internal/strsort"
	"dss/internal/strutil"
)

// item is one decoded item of a run.
type item struct {
	S   []byte
	LCP int32
	Sat uint64
}

// oneShot is the reference decoder of a format: the non-streaming path the
// cursor mirrors (DecodeRun), with 0 for a column the format lacks.
func oneShot(format RunFormat, msg []byte) ([]item, error) {
	ss, lcps, sats, err := DecodeRun(format, msg)
	if err != nil {
		return nil, err
	}
	items := make([]item, len(ss))
	for i, s := range ss {
		items[i].S = s
		if lcps != nil {
			items[i].LCP = lcps[i]
		}
		if sats != nil {
			items[i].Sat = sats[i]
		}
	}
	return items, nil
}

// spanFill cuts msg at the given boundaries (ascending offsets into msg)
// and returns the fill function every test drives its cursor with: each
// span is handed over in a buffer of its own, and that buffer is scribbled
// over the moment the next span is asked for — the shortest life a span may
// have. Neither a returned string nor the window itself may depend on a
// span beyond that point. (Cuts that would make an empty span are skipped:
// an empty span ends the sequence.)
func spanFill(msg []byte, cuts []int) func() []byte {
	var last []byte
	prev := 0
	cuts = append(append([]int(nil), cuts...), len(msg))
	return func() []byte {
		for i := range last {
			last[i] = 0xee
		}
		last = nil
		for len(cuts) > 0 && last == nil {
			if end := cuts[0]; end > prev {
				last = append([]byte(nil), msg[prev:end]...)
				prev = end
			}
			cuts = cuts[1:]
		}
		return last
	}
}

// streamDecode runs a RunCursor over msg cut at the given boundaries and
// collects every item (copied: the cursor reuses its buffer).
func streamDecode(format RunFormat, msg []byte, cuts []int) ([]item, error) {
	c := NewRunCursor(format, spanFill(msg, cuts))
	var items []item
	for {
		s, lcp, sat, ok, err := c.Next()
		if err != nil || !ok {
			if n, _ := c.Count(); err == nil && n != uint64(len(items)) {
				err = fmt.Errorf("cursor ended after %d of %d declared items", len(items), n)
			}
			return items, err
		}
		if s == nil {
			return items, fmt.Errorf("item %d decoded to a nil slice", len(items))
		}
		items = append(items, item{S: append([]byte{}, s...), LCP: lcp, Sat: sat})
	}
}

func itemsEqual(a, b []item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].S, b[i].S) || a[i].LCP != b[i].LCP || a[i].Sat != b[i].Sat {
			return false
		}
	}
	return true
}

// lcpOf computes the LCP of two byte strings (test-local helper).
func lcpOf(a, b []byte) int32 {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return int32(i)
}

// encodeRun builds a valid encoded run of the given format over a sorted
// string set, with satellites of every varint width.
func encodeRun(format RunFormat, ss [][]byte) []byte {
	lcps := make([]int32, len(ss))
	sats := make([]uint64, len(ss))
	for i := range ss {
		if i > 0 {
			lcps[i] = lcpOf(ss[i-1], ss[i])
		}
		sats[i] = uint64(i+1) << (7 * (i % 5))
	}
	return EncodeRun(format, strutil.Set{Strings: ss}, lcps, sats)
}

var runFormats = []RunFormat{RunStrings, RunLCP, RunSats, RunLCP | RunSats}

// testRuns are the string-set shapes every format is exercised with.
func testRuns() [][][]byte {
	return [][][]byte{
		{},
		{[]byte("")},
		{[]byte("a")},
		{[]byte(""), []byte(""), []byte("")},
		{[]byte("aa"), []byte("aab"), []byte("aab"), []byte("abc"), []byte("b")},
		{[]byte("shared-prefix-shared-prefix-1"), []byte("shared-prefix-shared-prefix-2"),
			[]byte("shared-prefix-shared-prefix-2x"), []byte("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")},
	}
}

// TestRunCursorEverySplitPoint feeds every test run, in every format,
// cut at EVERY single byte boundary (two spans) and additionally into
// uniform spans of 1..5 bytes, and requires the decoded items to be
// identical to the one-shot decoder's.
func TestRunCursorEverySplitPoint(t *testing.T) {
	for _, format := range runFormats {
		for ri, ss := range testRuns() {
			msg := encodeRun(format, ss)
			want, err := oneShot(format, msg)
			if err != nil {
				t.Fatalf("format %d run %d: reference decode failed: %v", format, ri, err)
			}
			// Two spans, cut at every boundary (0 and len included).
			for cut := 0; cut <= len(msg); cut++ {
				got, err := streamDecode(format, msg, []int{cut})
				if err != nil {
					t.Fatalf("format %d run %d cut %d: %v", format, ri, cut, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d run %d cut %d: items differ", format, ri, cut)
				}
			}
			// Uniform tiny spans: every varint and suffix straddles repeatedly.
			for width := 1; width <= 5; width++ {
				var cuts []int
				for c := width; c < len(msg); c += width {
					cuts = append(cuts, c)
				}
				got, err := streamDecode(format, msg, cuts)
				if err != nil {
					t.Fatalf("format %d run %d width %d: %v", format, ri, width, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d run %d width %d: items differ", format, ri, width)
				}
			}
		}
	}
}

// TestRunCursorGarbageTailsAndTruncations pins the failure-mode parity
// with the one-shot decoders: garbage appended after a complete run is
// ignored (exactly like the one-shot decoders ignore trailing bytes), and
// every strict prefix of an encoding either errors cleanly or — never —
// fabricates a complete run.
func TestRunCursorGarbageTailsAndTruncations(t *testing.T) {
	ss := [][]byte{[]byte("aa"), []byte("aab"), []byte("abc"), []byte("b")}
	for _, format := range runFormats {
		msg := encodeRun(format, ss)
		want, err := oneShot(format, msg)
		if err != nil {
			t.Fatalf("format %d: reference decode failed: %v", format, err)
		}
		// Garbage tails, both within the final span and as extra ones.
		for _, tail := range [][]byte{{0x00}, {0xff, 0xff, 0xff}, bytes.Repeat([]byte{0xab}, 64)} {
			dirty := append(append([]byte(nil), msg...), tail...)
			if wantDirty, err := oneShot(format, dirty); err != nil || !itemsEqual(want, wantDirty) {
				t.Fatalf("format %d: one-shot no longer ignores tails (%v)", format, err)
			}
			for _, cuts := range [][]int{{len(msg)}, {len(msg) / 2}, {len(msg), len(msg) + 1}} {
				got, err := streamDecode(format, dirty, cuts)
				if err != nil {
					t.Fatalf("format %d tail cuts %v: %v", format, cuts, err)
				}
				if !itemsEqual(want, got) {
					t.Fatalf("format %d tail cuts %v: items differ", format, cuts)
				}
			}
		}
		// Truncations: the one-shot decoder fails on every strict prefix of
		// this encoding; the cursor must fail too (possibly after
		// emitting the items that were already complete), never stall or
		// panic.
		for cut := 0; cut < len(msg); cut++ {
			if _, err := oneShot(format, msg[:cut]); err == nil {
				continue // a prefix that happens to decode (not for these runs)
			}
			if _, err := streamDecode(format, msg[:cut], []int{cut / 2}); err == nil {
				t.Fatalf("format %d: truncation at %d not reported", format, cut)
			}
		}
	}
}

// FuzzRunCursor compares the cursor against the one-shot decoder on
// arbitrary bytes cut into arbitrary spans: when the one-shot path accepts
// the message the cursor must produce the identical item sequence; when it
// rejects, the cursor must report a clean error (items it emitted before
// hitting the corruption are fine — a streaming decoder cannot see the tail
// first). Never a panic, a stall, or an over-read.
func FuzzRunCursor(f *testing.F) {
	for _, format := range runFormats {
		for _, ss := range testRuns() {
			for _, width := range []uint8{0, 3} { // 1- and 4-byte spans
				f.Add(uint8(format), width, encodeRun(format, ss))
			}
		}
	}
	f.Add(uint8(RunLCP), uint8(1), []byte{2, 0, 3, 'a', 'b', 'c', 9, 1}) // lcp 9 > prev len
	f.Add(uint8(RunStrings), uint8(2), []byte{1, 200, 1, 'x'})           // string longer than msg
	f.Add(uint8(RunStrings), uint8(1), bytes.Repeat([]byte{0xff}, 16))   // varint overflow
	f.Fuzz(func(t *testing.T, f8, width8 uint8, msg []byte) {
		format := RunFormat(f8 % 4)
		width := int(width8%16) + 1
		want, wantErr := oneShot(format, msg)
		var cuts []int
		for c := width; c < len(msg); c += width {
			cuts = append(cuts, c)
		}
		got, gotErr := streamDecode(format, msg, cuts)
		if wantErr == nil {
			if gotErr != nil {
				t.Fatalf("one-shot accepts but stream rejects: %v", gotErr)
			}
			if !itemsEqual(want, got) {
				t.Fatalf("items differ:\none-shot: %d items\nstream:   %d items", len(want), len(got))
			}
		} else if gotErr == nil {
			t.Fatalf("one-shot rejects (%v) but stream accepts %d items", wantErr, len(got))
		}
	})
}

// TestRunCursorEmptyFirstStringIsNonNil is the regression test of the nil
// head bug: a run BEGINNING with empty strings must decode them as empty
// NON-NIL slices, exactly like the one-shot arena decoders do — a nil
// string reads as the loser tree's exhausted sentinel and would silently
// drop the rest of the run (see merge.Source's Head contract).
func TestRunCursorEmptyFirstStringIsNonNil(t *testing.T) {
	ss := [][]byte{{}, {}, []byte("b")}
	for _, format := range runFormats {
		msg := encodeRun(format, ss)
		for _, width := range []int{1, 2, len(msg)} {
			var cuts []int
			for c := width; c < len(msg); c += width {
				cuts = append(cuts, c)
			}
			items, err := streamDecode(format, msg, cuts)
			if err != nil {
				t.Fatalf("format %d width %d: %v", format, width, err)
			}
			// (streamDecode has failed by now had any string come back nil.)
			if len(items) != len(ss) {
				t.Fatalf("format %d width %d: %d items, want %d", format, width, len(items), len(ss))
			}
		}
	}
}

// TestRunCursorContinue reads a sorted run cut into runs whose front
// coding continues across the cuts, as a sorted-run file's pages hold it:
// after Continue the cursor must take the next run's first LCP against
// the previous run's last string, and yield the items of the uncut run.
// The one-shot decoder rejects such a continuation run on its own.
func TestRunCursorContinue(t *testing.T) {
	ss := testRuns()[5]
	for _, format := range []RunFormat{RunLCP, RunLCP | RunSats} {
		whole := encodeRun(format, ss)
		want, err := oneShot(format, whole)
		if err != nil {
			t.Fatal(err)
		}
		var seq []byte
		for lo := 0; lo < len(want); lo += 2 {
			page := binary.AppendUvarint(nil, uint64(min(2, len(want)-lo)))
			for _, it := range want[lo:min(lo+2, len(want))] {
				page = AppendItem(page, format, it.S, it.LCP, it.Sat)
			}
			if lo > 0 {
				if _, err := oneShot(format, page); err == nil {
					t.Fatalf("format %d: the page at item %d decodes on its own", format, lo)
				}
			}
			seq = append(seq, page...)
		}
		c := NewRunCursor(format, spanFill(seq, []int{3, 7}))
		var got []item
		for len(got) < len(want) {
			s, lcp, sat, ok, err := c.Next()
			if err != nil {
				t.Fatalf("format %d item %d: %v", format, len(got), err)
			}
			if !ok {
				c.Continue()
				continue
			}
			got = append(got, item{S: append([]byte{}, s...), LCP: lcp, Sat: sat})
		}
		if !itemsEqual(want, got) {
			t.Fatalf("format %d: the continued runs decode to other items than the whole run", format)
		}
	}
}

// benchInput is one PE's share of the benchmark text (cc_ms_*), sorted,
// with its LCP array.
func benchInput() ([][]byte, []int32) {
	ss := input.CommonCrawlLike(input.CCConfig{LinesPerPE: 200_000, Seed: 1}, 0, 4)
	lcps, _ := strsort.SortLCP(ss, nil)
	return ss, lcps
}

// benchRun is benchInput front-coded the way Step 3 ships it.
func benchRun() (msg []byte, n int) {
	ss, lcps := benchInput()
	return AppendStringsLCP(nil, ss, lcps), len(ss)
}

// benchSink keeps the decoded strings observable.
var benchSink int

// BenchmarkRunCursor times the pull decoder of the budgeted merge over
// spans of a routing piece's and of a spill page's size.
func BenchmarkRunCursor(b *testing.B) {
	msg, n := benchRun()
	for _, span := range []int{8 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("span=%dKiB", span>>10), func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rest := msg
				c := NewRunCursor(RunLCP, func() []byte {
					s := rest[:min(span, len(rest))]
					rest = rest[len(s):]
					return s
				})
				got := 0
				for {
					s, _, _, ok, err := c.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					benchSink += len(s)
					got++
				}
				if got != n {
					b.Fatalf("decoded %d strings, want %d", got, n)
				}
			}
		})
	}
}

// BenchmarkDecodeStringsLCP times the one-shot decoder of the in-RAM
// landing over the same bytes.
func BenchmarkDecodeStringsLCP(b *testing.B) {
	msg, n := benchRun()
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, _, err := DecodeStringsLCP(msg)
		if err != nil || len(ss) != n {
			b.Fatalf("decoded %d strings (%v), want %d", len(ss), err, n)
		}
		benchSink += len(ss[n-1])
	}
}

// BenchmarkAppendStringsLCP times the Step-3 encoder over the same run as
// Step 3 drives it: the exact size first, then the encoding into a buffer
// of exactly that size. The strings are read through Step 1's order from
// the unsorted input, as Step 3 reads them, or from the same strings
// gathered into sorted order. Bytes are the encoded bytes, as in the
// decoder rungs above.
func BenchmarkAppendStringsLCP(b *testing.B) {
	ss := input.CommonCrawlLike(input.CCConfig{LinesPerPE: 200_000, Seed: 1}, 0, 4)
	order, lcps, _, _ := strsort.ParallelSortLCP(nil, ss, nil)
	sorted := strutil.Set{Strings: ss, Order: order}
	for _, c := range []struct {
		name string
		set  strutil.Set
	}{{"order", sorted}, {"gathered", strutil.Set{Strings: sorted.Gather()}}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, RunSize(RunLCP, c.set, lcps, nil))
			b.SetBytes(int64(cap(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				size := RunSize(RunLCP, c.set, lcps, nil)
				msg := AppendRun(buf[:0:size], RunLCP, c.set, lcps, nil)
				benchSink += len(msg)
			}
		})
	}
}
