package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dss/internal/input"
	"dss/internal/par"
	"dss/internal/strsort"
	"dss/internal/wire"
)

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	p, err := NewPool(cfg, par.New(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPoolAccounting pins the Reserve/Release/Peak/Room arithmetic.
func TestPoolAccounting(t *testing.T) {
	p := newTestPool(t, Config{Budget: 100})
	if p.Room() != 100 || p.live.Load() != 0 || p.Peak() != 0 {
		t.Fatalf("fresh pool not zeroed: live=%d peak=%d room=%d", p.live.Load(), p.Peak(), p.Room())
	}
	p.Reserve(60)
	if p.Room() != 40 {
		t.Fatalf("room %d at 60/100", p.Room())
	}
	p.Reserve(50)
	if p.Room() != 0 {
		t.Fatalf("room %d at 110/100", p.Room())
	}
	if p.live.Load() != 110 || p.Peak() != 110 {
		t.Fatalf("live=%d peak=%d, want 110/110", p.live.Load(), p.Peak())
	}
	p.Release(80)
	if p.Room() != 70 {
		t.Fatalf("room %d at 30/100", p.Room())
	}
	if p.live.Load() != 30 || p.Peak() != 110 {
		t.Fatalf("live=%d peak=%d, want 30/110 (peak is a high-water mark)", p.live.Load(), p.Peak())
	}
	// Budget 0 = unlimited: meters but never runs out of room.
	u := newTestPool(t, Config{})
	u.Reserve(1 << 40)
	if u.Room() != math.MaxInt64 {
		t.Fatalf("unlimited pool has room %d", u.Room())
	}
	if u.Peak() != 1<<40 {
		t.Fatalf("unlimited pool peak=%d", u.Peak())
	}
}

// TestDefaultPageSize pins the budget-derived page size: a fixed fraction
// of the budget, floored and capped, so pending pages can always flush well
// before the budget is gone.
func TestDefaultPageSize(t *testing.T) {
	cases := []struct {
		budget int64
		want   int
	}{
		{0, DefaultPageSize},        // unlimited: full page
		{1 << 30, DefaultPageSize},  // huge budget: capped at default
		{16 << 20, DefaultPageSize}, // budget/16 above the cap
		{2 << 20, 128 << 10},        // budget/16
		{256 << 10, 16 << 10},       // budget/16
		{64 << 10, MinPageSize},     // floored
		{1, MinPageSize},            // floored
		{16 * DefaultPageSize, DefaultPageSize},
	}
	for _, c := range cases {
		if got := defaultPageSizeFor(c.budget); got != c.want {
			t.Errorf("defaultPageSizeFor(%d) = %d, want %d", c.budget, got, c.want)
		}
		p := newTestPool(t, Config{Budget: c.budget})
		if p.PageSize() != c.want {
			t.Errorf("NewPool(budget=%d).PageSize() = %d, want %d", c.budget, p.PageSize(), c.want)
		}
	}
	// An explicit page size always wins.
	p := newTestPool(t, Config{Budget: 64 << 10, PageSize: 512})
	if p.PageSize() != 512 {
		t.Fatalf("explicit page size not honored: %d", p.PageSize())
	}
}

// TestFileRoundTrip appends random spans, reads the whole file back through
// ReadSpan at a different granularity — crossing durable pages, in-flight
// writes and the pending tail — and checks bytes and gauges.
func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := newTestPool(t, Config{Budget: 1 << 20, PageSize: 256})
	f, err := p.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var want []byte
	for i := 0; i < 200; i++ {
		span := make([]byte, 1+rng.Intn(100))
		for k := range span {
			span[k] = byte(rng.Intn(256))
		}
		f.Append(span)
		want = append(want, span...)
	}
	if f.Size() != int64(len(want)) {
		t.Fatalf("Size=%d, want %d", f.Size(), len(want))
	}

	// Interleave reads with more appends: the read cursor chases a file
	// that is still growing, like the merge chasing the exchange.
	var got []byte
	for len(got) < len(want) {
		b, err := f.ReadSpan(int64(len(got)), 1+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("ReadSpan returned empty at %d < size %d", len(got), f.Size())
		}
		got = append(got, b...)
		if rng.Intn(3) == 0 {
			span := make([]byte, 1+rng.Intn(100))
			for k := range span {
				span[k] = byte(rng.Intn(256))
			}
			f.Append(span)
			want = append(want, span...)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-back bytes differ from appended bytes")
	}
	if b, err := f.ReadSpan(f.Size(), 10); err != nil || b != nil {
		t.Fatalf("ReadSpan at EOF = (%v, %v), want (nil, nil)", b, err)
	}

	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Finish(); err != nil { // idempotent
		t.Fatal(err)
	}
	// After Finish everything is durable: a full re-read hits the disk.
	readBefore := p.BytesRead()
	var again []byte
	for int64(len(again)) < f.Size() {
		b, err := f.ReadSpan(int64(len(again)), 512)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, b...)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("post-Finish read-back differs")
	}
	if p.BytesRead() <= readBefore {
		t.Fatal("post-Finish reads not metered as BytesRead")
	}
	if p.BytesWritten() != f.Size() {
		t.Fatalf("BytesWritten=%d, want full file %d", p.BytesWritten(), f.Size())
	}
	// Every pending byte was released once its page write completed.
	if p.live.Load() != 0 {
		t.Fatalf("live=%d after Finish, want 0", p.live.Load())
	}
}

// TestFilePendingTailAlias checks the documented aliasing contract: a span
// served from the pending tail stays valid even after further appends.
func TestFilePendingTailAlias(t *testing.T) {
	p := newTestPool(t, Config{PageSize: 1 << 20}) // page never flushes
	f, err := p.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Append([]byte("hello "))
	b, err := f.ReadSpan(0, 6)
	if err != nil || string(b) != "hello " {
		t.Fatalf("ReadSpan = (%q, %v)", b, err)
	}
	f.Append(bytes.Repeat([]byte("x"), 4096)) // may reallocate pending
	if string(b) != "hello " {
		t.Fatalf("earlier span invalidated by append: %q", b)
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolClose checks the lifecycle: page files live only in the pool's
// private directory and Close removes it, idempotently.
func TestPoolClose(t *testing.T) {
	parent := t.TempDir()
	p, err := NewPool(Config{Dir: parent}, par.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(p.dir) != parent {
		t.Fatalf("pool dir %q not under %q", p.dir, parent)
	}
	f, err := p.CreateFile("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Append([]byte("data"))
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := os.Stat(p.dir); !os.IsNotExist(err) {
		t.Fatalf("pool dir still present after Close: %v", err)
	}
}

// TestFileCreateFailure checks the fault-injection seam: CreateFile
// surfaces the injected error and the pool still closes cleanly.
func TestFileCreateFailure(t *testing.T) {
	injected := errors.New("injected create failure")
	p := newTestPool(t, Config{Create: func(string) (*os.File, error) { return nil, injected }})
	if _, err := p.CreateFile("a"); !errors.Is(err, injected) {
		t.Fatalf("CreateFile error = %v, want injected", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileWriteFailure checks that a failing page write surfaces through
// Finish and ReadSpan instead of being swallowed by the write-behind chain.
func TestFileWriteFailure(t *testing.T) {
	dir := t.TempDir()
	p := newTestPool(t, Config{Dir: dir, PageSize: 64, Create: func(name string) (*os.File, error) {
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		f.Close() // writes to the closed descriptor will fail
		return f, nil
	}})
	f, err := p.CreateFile("bad")
	if err != nil {
		t.Fatal(err)
	}
	f.Append(bytes.Repeat([]byte("y"), 256)) // crosses the page size: flush fails
	if _, err := f.Finish(); err == nil {
		t.Fatal("Finish did not surface the write error")
	}
	if _, err := f.ReadSpan(0, 10); err == nil {
		t.Fatal("ReadSpan did not surface the write error")
	}
}

// TestRunFileRoundTrip round-trips items through RunWriter and RunScanner
// for every flag combination, with string shapes that exercise the front
// coding (shared prefixes, empty strings, long items crossing pages).
func TestRunFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type item struct {
		s   string
		lcp int32
		sat uint64
	}
	for _, opts := range []RunWriterOpts{{}, {LCP: true}, {Sats: true}, {LCP: true, Sats: true}} {
		// Sorted strings with real LCPs, so the front coding is exercised.
		n := 500
		ss := make([]string, n)
		for i := range ss {
			ss[i] = fmt.Sprintf("prefix-%04d-%s", i/7, string(rune('a'+rng.Intn(26))))
		}
		items := make([]item, n)
		for i := range items {
			var lcp int32
			if i > 0 {
				for int(lcp) < len(ss[i]) && int(lcp) < len(ss[i-1]) && ss[i][lcp] == ss[i-1][lcp] {
					lcp++
				}
			}
			items[i] = item{s: ss[i], lcp: lcp, sat: rng.Uint64()}
		}

		var buf bytes.Buffer
		w, err := NewRunWriter(&buf, opts, nil, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			lcp := it.lcp
			if !opts.LCP {
				lcp = 0
			}
			if err := w.Add([]byte(it.s), lcp, it.sat); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		sc, err := NewRunScanner(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if sc.HasLCP() != opts.LCP || sc.HasSats() != opts.Sats {
			t.Fatalf("flags mismatch: HasLCP=%v HasSats=%v want %+v", sc.HasLCP(), sc.HasSats(), opts)
		}
		for i, it := range items {
			s, lcp, sat, ok, err := sc.Next()
			if err != nil || !ok {
				t.Fatalf("opts %+v item %d: Next = (%v, %v)", opts, i, ok, err)
			}
			if string(s) != it.s {
				t.Fatalf("opts %+v item %d: got %q want %q", opts, i, s, it.s)
			}
			if opts.LCP && lcp != it.lcp {
				t.Fatalf("opts %+v item %d: lcp %d want %d", opts, i, lcp, it.lcp)
			}
			if opts.Sats && sat != it.sat {
				t.Fatalf("opts %+v item %d: sat %d want %d", opts, i, sat, it.sat)
			}
		}
		if _, _, _, ok, err := sc.Next(); ok || err != nil {
			t.Fatalf("opts %+v: run did not end cleanly: (%v, %v)", opts, ok, err)
		}
	}
}

// TestRunScannerTruncated checks that a run file cut off mid-stream
// surfaces an error rather than a clean end.
func TestRunScannerTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewRunWriter(&buf, RunWriterOpts{LCP: true}, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Add([]byte(fmt.Sprintf("string-%03d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	sc, err := NewRunScanner(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, _, ok, err := sc.Next()
		if err != nil {
			return // truncation surfaced
		}
		if !ok {
			t.Fatal("truncated run ended cleanly")
		}
	}
}

// TestRunScannerHugeDeclaredLength is the regression test of the 2 GiB
// allocation: a 16-byte file whose one item declares a suffix of 2³¹−1
// bytes (the longest string an int32 LCP can address) and then ends. The scanner
// used to size its buffer from the declared length before reading a byte
// of it; it must fail with an error having allocated next to nothing, in
// every column layout.
func TestRunScannerHugeDeclaredLength(t *testing.T) {
	for flags := byte(0); flags < 4; flags++ {
		file := append(append([]byte(nil), runMagic[:]...), flags, 1) // one page of one item
		if wire.RunFormat(flags)&wire.RunLCP != 0 {
			file = append(file, 0)
		}
		if wire.RunFormat(flags)&wire.RunSats != 0 {
			file = append(file, 0)
		}
		file = append(binary.AppendUvarint(file, math.MaxInt32), 'x')

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc, err := NewRunScanner(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, ok, err := sc.Next()
		runtime.ReadMemStats(&after)
		if ok || err == nil {
			t.Fatalf("flags %02b: a %d-byte file yielded an item (ok=%v, err=%v)", flags, len(file), ok, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("flags %02b: scanning a %d-byte file allocated %d bytes", flags, len(file), grew)
		}
	}
}

// benchSink keeps the scanned strings observable.
var benchSink int

// benchRun is one PE's share of the benchmark text (cc_ms_*), sorted, with
// its LCP array.
func benchRun() ([][]byte, []int32) {
	ss := input.CommonCrawlLike(input.CCConfig{LinesPerPE: 200_000, Seed: 1}, 0, 4)
	lcps, _ := strsort.SortLCP(ss, nil)
	return ss, lcps
}

// writeRun writes ss as a DSSRUN1 file with the LCP column onto file.
func writeRun(file *bytes.Buffer, ss [][]byte, lcps []int32) error {
	w, err := NewRunWriter(file, RunWriterOpts{LCP: true}, nil, 0)
	if err != nil {
		return err
	}
	for i, s := range ss {
		if err := w.Add(s, lcps[i], 0); err != nil {
			return err
		}
	}
	return w.Close()
}

// BenchmarkRunWriter times the sorted-run writer over one PE's share of the
// benchmark text, with the LCP column, as a budgeted merge writes its
// output. Bytes are the file's bytes, as in BenchmarkRunScanner.
func BenchmarkRunWriter(b *testing.B) {
	ss, lcps := benchRun()
	var file bytes.Buffer
	if err := writeRun(&file, ss, lcps); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file.Reset()
		if err := writeRun(&file, ss, lcps); err != nil {
			b.Fatal(err)
		}
		benchSink += file.Len()
	}
}

// BenchmarkRunScanner times the sorted-run scanner over one PE's share of
// the benchmark text (cc_ms_*) written as a DSSRUN1 file with the LCP
// column — the same strings wire's BenchmarkRunCursor decodes.
func BenchmarkRunScanner(b *testing.B) {
	ss, lcps := benchRun()
	var file bytes.Buffer
	if err := writeRun(&file, ss, lcps); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := NewRunScanner(bytes.NewReader(file.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			s, _, _, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			benchSink += len(s)
			got++
		}
		if got != len(ss) {
			b.Fatalf("scanned %d items, want %d", got, len(ss))
		}
	}
}
