package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dss/internal/comm"
	"dss/internal/input"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// arrivals returns a receive side that yields copies of the buckets — the
// landing releases what it is handed — in order, one per source.
func arrivals(c *comm.Comm, buckets [][]byte) func() (int, []byte, bool) {
	msgs := make([][]byte, len(buckets))
	for i, b := range buckets {
		msgs[i] = c.Alloc(len(b))
		copy(msgs[i], b)
	}
	next := 0
	return func() (int, []byte, bool) {
		if next == len(msgs) {
			return -1, nil, false
		}
		next++
		return next - 1, msgs[next-1], true
	}
}

// land drives routeRuns — the entry point exchangeMerge hands the
// exchange's receive side to — with the given buckets arriving in order
// into the budgeted landing (pool != nil) or the in-RAM one (pool == nil),
// which then merges them. A failing rank's panic comes back as the error.
func land(pool *spill.Pool, format wire.RunFormat, origins bool, buckets ...[]byte) (runs []encodedRun, out merge.Sequence, err error) {
	err = comm.New(1).Run(func(c *comm.Comm) error {
		runs = routeRuns(c, arrivals(c, buckets), len(buckets), format, origins, pool)
		if pool == nil {
			out, _ = arenaMerge(c, runs, format, origins, format == wire.RunStringsLCP)
		}
		return nil
	})
	return runs, out, err
}

// routeArrivals is land into the budgeted landing, failing the test on a
// panic.
func routeArrivals(t *testing.T, pool *spill.Pool, origins bool, buckets ...[]byte) []encodedRun {
	t.Helper()
	format := wire.RunStrings
	if origins {
		format = wire.RunStringsLCP
	}
	runs, _, err := land(pool, format, origins, buckets...)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// oneShot is the landing's oracle for one bucket: the one-shot decoders —
// and for a composite bucket the origin column, which must hold one value
// per prefix — into a resident run.
func oneShot(format wire.RunFormat, origins bool, bucket []byte) (seq merge.Sequence, err error) {
	blob, col := bucket, []byte(nil)
	if origins {
		r := wire.NewReader(bucket)
		if blob, err = r.BytesPrefixed(); err == nil {
			col, err = r.BytesPrefixed()
		}
		if err != nil {
			return seq, err
		}
	}
	if format == wire.RunStrings {
		seq.Strings, err = wire.DecodeStrings(blob)
	} else {
		seq.Strings, seq.LCPs, err = wire.DecodeStringsLCP(blob)
	}
	if err == nil && origins {
		seq.Sats, err = wire.DecodeUint64s(col)
		if err == nil && len(seq.Sats) != len(seq.Strings) {
			err = wire.ErrCorrupt
		}
	}
	return seq, err
}

// TestSpillRoutesOversizeFragmentByPage is the regression test of the
// budget overshoot: every bucket — the PE's own and, since the exchange
// hands them over whole, every remote one — reaches the budgeted landing as
// ONE piece of the whole bucket, and keeping it in one piece either held a
// run far past the budget or queued one bucket-sized "page" behind the
// meter until its write landed. A bucket of 16 pages must stay resident
// only as far as the budget has room and go to its page file page by page —
// the metered peak stays within budget + 2 pages (one paged back in, one
// being written; the write-behind depth is the worker pool's width,
// sequential here) whether the pool starts empty (the run is resident up
// to the budget, then spilled) or already at its budget (every byte goes
// to the page file) — and the run must read back intact. The self case
// calls route as such; the remote case goes through routeRuns with the
// bucket arriving second of two.
func TestSpillRoutesOversizeFragmentByPage(t *testing.T) {
	const budget, page, pages = 4096, 512, 16
	var ss [][]byte
	for i := 0; len(ss)*21 < pages*page; i++ {
		ss = append(ss, []byte(fmt.Sprintf("%020d", i)))
	}
	msg := wire.EncodeStrings(ss)
	for _, remote := range []bool{false, true} {
		for _, full := range []bool{false, true} {
			label := fmt.Sprintf("remote=%v full=%v", remote, full)
			pool, err := spill.NewPool(spill.Config{Budget: budget, PageSize: page, Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if full {
				pool.Reserve(budget) // nothing left: every page in flight is overshoot
			}
			run := &encodedRun{}
			if remote {
				runs := routeArrivals(t, pool, false, wire.EncodeStrings(nil), msg)
				run = &runs[len(runs)-1]
			} else {
				run.route(pool, 0, msg, false)
			}
			if run.file == nil {
				t.Fatalf("%s: a %d-byte bucket stayed resident under a %d-byte budget", label, len(msg), budget)
			}
			if full != (len(run.resident) == 0) {
				t.Fatalf("%s: %d bytes resident", label, len(run.resident))
			}
			src := run.source(pool, wire.RunStrings, false)
			for i, want := range ss {
				if s, _, _, ok := src.Next(); !ok || !bytes.Equal(s, want) {
					t.Fatalf("%s: string %d read back as %q (ok=%v), want %q", label, i, s, ok, want)
				}
			}
			if _, _, _, ok := src.Next(); ok {
				t.Fatalf("%s: run yields more strings than were routed", label)
			}
			if peak := pool.Peak(); peak > budget+2*page {
				t.Fatalf("%s: peak %d exceeds budget %d + 2 pages of %d: the bucket was not routed page by page",
					label, peak, budget, page)
			}
		}
	}
}

// prefixBucket hand-encodes one PDMS bucket as pdms.go's encoder lays it
// out; the origin column is well-formed whatever its length.
func prefixBucket(ss [][]byte, lcps []int32, sats []uint64) (bucket []byte, blobEnd int) {
	blob := wire.EncodeStringsLCP(ss, lcps)
	ocol := binary.AppendUvarint(nil, uint64(len(sats)))
	for _, u := range sats {
		ocol = binary.AppendUvarint(ocol, u)
	}
	bucket = binary.AppendUvarint(nil, uint64(len(blob)))
	bucket = append(bucket, blob...)
	blobEnd = len(bucket)
	bucket = binary.AppendUvarint(bucket, uint64(len(ocol)))
	return append(bucket, ocol...), blobEnd
}

// TestSpillCompositeBucket routes one PDMS-layout bucket with the
// resident/file boundary placed inside the prefix blob, exactly at the
// blob/origin boundary, inside the origin column and past the end (wholly
// resident), and requires the two-window source to read back what the
// in-RAM decoder makes of the same bytes; then checks that a bucket whose
// origin column declares one value more or less than the blob has strings
// is rejected by both landings alike.
func TestSpillCompositeBucket(t *testing.T) {
	const budget, page = 1 << 20, 64
	var ss [][]byte
	var sats []uint64
	for i := 0; i < 200; i++ {
		ss = append(ss, []byte(fmt.Sprintf("prefix-%04d", i/3)))
		sats = append(sats, uint64(i%4)<<32|uint64(i*977))
	}
	lcps := make([]int32, len(ss))
	for i := 1; i < len(ss); i++ {
		for int(lcps[i]) < len(ss[i]) && ss[i][lcps[i]] == ss[i-1][lcps[i]] {
			lcps[i]++
		}
	}
	newPool := func(room int) *spill.Pool {
		pool, err := spill.NewPool(spill.Config{Budget: budget, PageSize: page, Dir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		pool.Reserve(int64(budget - room))
		return pool
	}

	bucket, blobEnd := prefixBucket(ss, lcps, sats)
	want, err := oneShot(wire.RunStringsLCP, true, bucket)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		room int // bytes of the bucket the pool has room to keep resident
	}{
		{"inside the blob", blobEnd / 2},
		{"at the blob/origin boundary", blobEnd},
		{"inside the origin column", (blobEnd + len(bucket)) / 2},
		{"past the end", len(bucket) + page},
	} {
		pool := newPool(c.room)
		run := &routeArrivals(t, pool, true, bucket)[0]
		if got := min(c.room, len(bucket)); len(run.resident) != got || (run.file == nil) != (got == len(bucket)) {
			t.Fatalf("%s: %d bytes resident (file: %v), want %d", c.name, len(run.resident), run.file != nil, got)
		}
		src := run.source(pool, wire.RunStringsLCP, true)
		for i := range want.Strings {
			s, lcp, sat, ok := src.Next()
			if !ok || !bytes.Equal(s, want.Strings[i]) || lcp != want.LCPs[i] || sat != want.Sats[i] {
				t.Fatalf("%s: item %d read back as (%q, %d, %d, ok=%v), want (%q, %d, %d)",
					c.name, i, s, lcp, sat, ok, want.Strings[i], want.LCPs[i], want.Sats[i])
			}
		}
		if _, _, _, ok := src.Next(); ok {
			t.Fatalf("%s: run yields more items than were routed", c.name)
		}
	}

	for _, d := range []int{-1, +1} {
		bad, blobEnd := prefixBucket(ss, lcps, append(sats, 7)[:len(sats)+d])
		if _, err := oneShot(wire.RunStringsLCP, true, bad); err != wire.ErrCorrupt {
			t.Fatalf("%+d origins: in-RAM decode returned %v, want %v", d, err, wire.ErrCorrupt)
		}
		pool := newPool(blobEnd)
		run := &routeArrivals(t, pool, true, bad)[0]
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), wire.ErrCorrupt.Error()) {
					t.Fatalf("%+d origins: opening the source gave %v, want a panic carrying %q", d, r, wire.ErrCorrupt)
				}
			}()
			run.source(pool, wire.RunStringsLCP, true)
		}()
	}
}

// landingLayouts are the three bucket layouts the Step-3 encoders produce:
// MS-simple/FKmerge, MS and PDMS.
var landingLayouts = []struct {
	name    string
	format  wire.RunFormat
	origins bool
}{
	{"RunStrings", wire.RunStrings, false},
	{"RunStringsLCP", wire.RunStringsLCP, false},
	{"PDMS", wire.RunStringsLCP, true},
}

// encodeBucket encodes one sorted run in a layout; origins get values of
// every varint width.
func encodeBucket(format wire.RunFormat, origins bool, ss [][]byte, src int) []byte {
	lcps := make([]int32, len(ss))
	for i := 1; i < len(ss); i++ {
		lcps[i] = int32(strutil.LCP(ss[i-1], ss[i]))
	}
	if origins {
		sats := make([]uint64, len(ss))
		for i := range sats {
			sats[i] = originSat(src, i*977)
		}
		bucket, _ := prefixBucket(ss, lcps, sats)
		return bucket
	}
	if format == wire.RunStrings {
		return wire.EncodeStrings(ss)
	}
	return wire.EncodeStringsLCP(ss, lcps)
}

// landingRun is a sorted run of one of five shapes: empty, one string, all
// equal (possibly all empty), short strings over two letters with empty
// ones among them, and long strings sharing deep prefixes.
func landingRun(rng *rand.Rand, shape int) [][]byte {
	var ss [][]byte
	switch shape {
	case 1:
		ss = [][]byte{[]byte("solo")}
	case 2:
		s := bytes.Repeat([]byte{'e'}, rng.Intn(3))
		for i := 0; i < 1+rng.Intn(20); i++ {
			ss = append(ss, s)
		}
	case 3:
		for i := 0; i < rng.Intn(60); i++ {
			s := make([]byte, rng.Intn(4))
			for j := range s {
				s[j] = byte('a' + rng.Intn(2))
			}
			ss = append(ss, s)
		}
	case 4:
		for i := 0; i < rng.Intn(60); i++ {
			ss = append(ss, []byte(fmt.Sprintf("%s%03d", strings.Repeat("shared/", 1+rng.Intn(3)), rng.Intn(40))))
		}
	}
	sort.Slice(ss, func(i, j int) bool { return bytes.Compare(ss[i], ss[j]) < 0 })
	return ss
}

// TestLandingMatchesOneShot is the differential of the one Step-4 landing:
// p PEs exchange buckets of every run shape through exchangeMerge in RAM,
// and every PE's output — strings, LCPs, satellites — and the merge work it
// billed must equal what the one-shot decoders and merge.Merge make of the
// buckets it received, in every bucket layout, at every p of testPs.
func TestLandingMatchesOneShot(t *testing.T) {
	for _, l := range landingLayouts {
		for _, p := range testPs {
			t.Run(fmt.Sprintf("%s/p=%d", l.name, p), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100 + p)))
				buckets := make([][][]byte, p) // buckets[src][dst]
				for src := range buckets {
					buckets[src] = make([][]byte, p)
					for dst := range buckets[src] {
						buckets[src][dst] = encodeBucket(l.format, l.origins, landingRun(rng, (src+2*dst+p)%5), src)
					}
				}
				lcp := l.format == wire.RunStringsLCP
				outs := make([]merge.Sequence, p)
				m := comm.New(p)
				if err := m.Run(func(c *comm.Comm) error {
					me := c.Rank()
					sizes := make([]int, p)
					for dst := range sizes {
						sizes[dst] = len(buckets[me][dst])
					}
					enc := func(dst int, buf []byte) []byte { return append(buf, buckets[me][dst]...) }
					outs[me], _ = exchangeMerge(c, c.World(), bucketCodec{
						sizes: sizes, enc: enc, format: l.format, origins: l.origins,
					}, lcp, SeamOptions{})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for dst, got := range outs {
					seqs := make([]merge.Sequence, p)
					for src := range seqs {
						var err error
						if seqs[src], err = oneShot(l.format, l.origins, buckets[src][dst]); err != nil {
							t.Fatal(err)
						}
					}
					want, work := merge.Merge(seqs, lcp)
					label := fmt.Sprintf("PE %d", dst)
					if len(got.Strings) != len(want.Strings) || (got.Strings == nil) != (want.Strings == nil) {
						t.Fatalf("%s: %d strings, want %d", label, len(got.Strings), len(want.Strings))
					}
					for i := range want.Strings {
						if !bytes.Equal(got.Strings[i], want.Strings[i]) {
							t.Fatalf("%s: string %d = %q, want %q", label, i, got.Strings[i], want.Strings[i])
						}
					}
					if fmt.Sprint(got.LCPs) != fmt.Sprint(want.LCPs) || (got.LCPs == nil) != (want.LCPs == nil) {
						t.Fatalf("%s: LCPs %v, want %v", label, got.LCPs, want.LCPs)
					}
					if fmt.Sprint(got.Sats) != fmt.Sprint(want.Sats) || (got.Sats == nil) != (want.Sats == nil) {
						t.Fatalf("%s: satellites %v, want %v", label, got.Sats, want.Sats)
					}
					if billed := m.Report().PEs[dst].Phases[stats.PhaseMerge].Work; billed != work {
						t.Fatalf("%s: billed merge work %d, want %d", label, billed, work)
					}
				}
			})
		}
	}
}

// TestLandingRejectsCorruptBuckets feeds the in-RAM landing one good bucket
// and one corrupt one: the landing must panic with "corrupt exchanged run"
// while the buckets land, before the merge produces any output.
func TestLandingRejectsCorruptBuckets(t *testing.T) {
	ss := [][]byte{[]byte("ab"), []byte("abc"), []byte("abd"), []byte("b")}
	lcps := []int32{0, 2, 2, 0}
	sats := []uint64{1, 2, 3, 4}
	trunc := func(b []byte) []byte { return b[:len(b)-1] }
	withOrigins := func(sats []uint64) []byte { b, _ := prefixBucket(ss, lcps, sats); return b }
	for _, c := range []struct {
		name    string
		format  wire.RunFormat
		origins bool
		bucket  []byte
	}{
		{"RunStrings truncated suffix", wire.RunStrings, false, trunc(wire.EncodeStrings(ss))},
		{"RunStringsLCP truncated suffix", wire.RunStringsLCP, false, trunc(wire.EncodeStringsLCP(ss, lcps))},
		{"first LCP not 0", wire.RunStringsLCP, false, []byte{2, 1, 2, 'a', 'b', 0, 1, 'c'}},
		{"LCP longer than predecessor", wire.RunStringsLCP, false, []byte{2, 0, 2, 'a', 'b', 3, 1, 'c'}},
		{"PDMS one origin short", wire.RunStringsLCP, true, withOrigins(sats[:3])},
		{"PDMS one origin over", wire.RunStringsLCP, true, withOrigins(append(sats, 5))},
		{"PDMS truncated origin column", wire.RunStringsLCP, true, trunc(withOrigins(sats))},
	} {
		t.Run(c.name, func(t *testing.T) {
			good := encodeBucket(c.format, c.origins, ss, 0)
			if _, err := oneShot(c.format, c.origins, c.bucket); err == nil {
				t.Fatal("the one-shot oracle accepts the corrupt bucket")
			}
			_, out, err := land(nil, c.format, c.origins, good, c.bucket)
			if err == nil || !strings.Contains(err.Error(), "corrupt exchanged run") {
				t.Fatalf("landing returned %v, want a panic carrying %q", err, "corrupt exchanged run")
			}
			if out.Strings != nil {
				t.Fatalf("the merge produced %d strings before the corrupt bucket was rejected", len(out.Strings))
			}
		})
	}
}

// BenchmarkLanding is the rung of Step 4 in RAM: one PE's p = 4 received
// buckets — each a quarter of a COMMONCRAWL-like input (the cc_ms_*
// workloads' generator) or of a 500-character D/N input (dnlong_ms_tcp's
// shape), sorted and front-coded as Step 3 ships them — landed and merged
// into the output arena, against the one-shot pair it replaced (decode
// every bucket whole, then merge.MergeLCP). Bytes are the output
// characters.
func BenchmarkLanding(b *testing.B) {
	const p = 4
	inputs := []struct {
		name string
		gen  func(pe int) [][]byte
	}{
		{"cc", func(pe int) [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: 50_000, Seed: 1}, pe, p)
		}},
		{"dn500", func(pe int) [][]byte {
			return input.DN(input.DNConfig{StringsPerPE: 10_000, Length: 500}, pe, p)
		}},
	}
	for _, in := range inputs {
		buckets := make([][]byte, p)
		chars := 0
		for src := range buckets {
			ss := in.gen(src)
			lcps, _ := strsort.SortLCP(ss, nil)
			buckets[src] = wire.EncodeStringsLCP(ss, lcps)
			for _, s := range ss {
				chars += len(s)
			}
		}
		b.Run(in.name+"/landing", func(b *testing.B) {
			b.SetBytes(int64(chars))
			b.ReportAllocs()
			if err := comm.New(1).Run(func(c *comm.Comm) error {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					recv := arrivals(c, buckets) // the transport's buffers
					b.StartTimer()
					runs := routeRuns(c, recv, p, wire.RunStringsLCP, false, nil)
					out, _ := arenaMerge(c, runs, wire.RunStringsLCP, false, true)
					sink += int64(len(out.Strings))
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(in.name+"/oneshot", func(b *testing.B) {
			b.SetBytes(int64(chars))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seqs := make([]merge.Sequence, p)
				for src, msg := range buckets {
					ss, lcps, err := wire.DecodeStringsLCP(msg)
					if err != nil {
						b.Fatal(err)
					}
					seqs[src] = merge.Sequence{Strings: ss, LCPs: lcps}
				}
				out, _ := merge.MergeLCP(seqs)
				sink += int64(len(out.Strings))
			}
		})
	}
}
