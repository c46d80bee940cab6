package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
// landing releases what it is handed — in order, one per source; a nil
// bucket is the own one, which never arrives.
func arrivals(c *comm.Comm, buckets [][]byte) func() (int, []byte, bool) {
	msgs := make([][]byte, len(buckets))
	for i, b := range buckets {
		if b != nil {
			msgs[i] = c.Alloc(len(b))
			copy(msgs[i], b)
		}
	}
	next := 0
	return func() (int, []byte, bool) {
		for next < len(msgs) && msgs[next] == nil {
			next++
		}
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
// which then merges them into a collecting Output. A failing rank's panic
// comes back as the error.
func land(pool *spill.Pool, format wire.RunFormat, origins bool, buckets ...[]byte) (runs []encodedRun, out fragment, err error) {
	err = comm.New(1).Run(func(c *comm.Comm) error {
		runs = routeRuns(c, arrivals(c, buckets), len(buckets), format, origins, nil, pool)
		if pool == nil {
			lcp := format == wire.RunStringsLCP
			sinkMerge(c, nil, runs, format, origins, lcp, out.output(lcp, origins))
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
// budget overshoot: every received bucket — the exchange hands them over
// whole — reaches the budgeted landing as ONE piece, and keeping it in one
// piece either held a
// run far past the budget or queued one bucket-sized "page" behind the
// meter until its write landed. A bucket of 16 pages must stay resident
// only as far as the budget has room and go to its page file page by page —
// the metered peak stays within budget + 2 pages (one paged back in, one
// being written; the write-behind depth is the worker pool's width,
// sequential here) whether the pool starts empty (the run is resident up
// to the budget, then spilled) or already at its budget (every byte goes
// to the page file) — and the run must read back intact. One case calls
// route as such, the other goes through routeRuns with the bucket arriving
// second of two.
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
				run.route(pool, 0, msg, wire.RunStrings, false, nil)
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
// is rejected by both landings alike: under the budget too, the walk fails
// the bucket as it is routed, before any of it is paged.
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
		if _, _, err := land(newPool(blobEnd), wire.RunStringsLCP, true, bad); err == nil || !strings.Contains(err.Error(), wire.ErrCorrupt.Error()) {
			t.Fatalf("%+d origins: routing the bucket gave %v, want an error carrying %q", d, err, wire.ErrCorrupt)
		}
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

// landingCases are the bucket contents of TestLandingMatchesOneShot:
// run(rng, p, src, dst) is the sorted run PE src sends PE dst.
var landingCases = []struct {
	name string
	run  func(rng *rand.Rand, p, src, dst int) [][]byte
}{
	{"mixed", func(rng *rand.Rand, p, src, dst int) [][]byte {
		return landingRun(rng, (src+2*dst+p)%5)
	}},
	{"own empty", func(rng *rand.Rand, p, src, dst int) [][]byte {
		if src == dst {
			return nil
		}
		return landingRun(rng, 1+(src+2*dst+p)%4)
	}},
	{"own only", func(rng *rand.Rand, p, src, dst int) [][]byte {
		if src != dst {
			return nil
		}
		return landingRun(rng, 3+src%2)
	}},
	{"empty strings", func(rng *rand.Rand, p, src, dst int) [][]byte {
		ss := make([][]byte, rng.Intn(6))
		for i := range ss {
			if i%2 == 1 {
				ss[i] = []byte{} // and nil for the even ones
			}
		}
		return ss
	}},
}

// TestLandingMatchesOneShot is the differential of the one Step-4 landing:
// p PEs exchange buckets of every run shape through exchangeMerge in RAM,
// and every PE's output — strings, LCPs, satellites — and the merge work it
// billed must equal what the one-shot decoders and merge.Merge make of all
// p buckets encoded, in every bucket layout, at every p of testPs. Each PE's
// own bucket stays resident, as the sorters keep it.
func TestLandingMatchesOneShot(t *testing.T) {
	for _, l := range landingLayouts {
		for _, p := range testPs {
			t.Run(fmt.Sprintf("%s/p=%d", l.name, p), func(t *testing.T) {
				for _, lc := range landingCases {
					t.Run("home/"+lc.name, func(t *testing.T) {
						checkLanding(t, l.format, l.origins, p, lc.run)
					})
				}
			})
		}
	}
}

// homeRun is the resident form of PE src's run: the strings with their
// LCP array — its first entry nonzero, like the boundary entry lcpSub
// leaves in place — and origins, as a sorter hands its own bucket to
// exchangeMerge.
func homeRun(format wire.RunFormat, origins bool, ss [][]byte, src int) *merge.Sequence {
	own := &merge.Sequence{Strings: ss}
	if format == wire.RunStringsLCP {
		own.LCPs = make([]int32, len(ss))
		for i := 1; i < len(ss); i++ {
			own.LCPs[i] = int32(strutil.LCP(ss[i-1], ss[i]))
		}
		if len(ss) > 0 {
			own.LCPs[0] = 7
		}
	}
	if origins {
		own.Sats = make([]uint64, len(ss))
		for i := range own.Sats {
			own.Sats[i] = originSat(src, i*977)
		}
	}
	return own
}

func checkLanding(t *testing.T, format wire.RunFormat, origins bool, p int,
	run func(rng *rand.Rand, p, src, dst int) [][]byte) {
	rng := rand.New(rand.NewSource(int64(100 + p)))
	runs := make([][][][]byte, p)  // runs[src][dst]
	buckets := make([][][]byte, p) // buckets[src][dst], encoded
	for src := range buckets {
		runs[src] = make([][][]byte, p)
		buckets[src] = make([][]byte, p)
		for dst := range buckets[src] {
			runs[src][dst] = run(rng, p, src, dst)
			buckets[src][dst] = encodeBucket(format, origins, runs[src][dst], src)
		}
	}
	lcp := format == wire.RunStringsLCP
	outs := make([]fragment, p)
	m := comm.New(p)
	if err := m.Run(func(c *comm.Comm) error {
		me := c.Rank()
		sizes := make([]int, p)
		for dst := range sizes {
			sizes[dst] = len(buckets[me][dst])
		}
		enc := func(dst int, buf []byte) []byte {
			if dst == me {
				panic("the own bucket was encoded")
			}
			return append(buf, buckets[me][dst]...)
		}
		cd := bucketCodec{sizes: sizes, enc: enc, format: format, origins: origins,
			own: homeRun(format, origins, runs[me][me], me)}
		exchangeMerge(c, comm.NewGroup(c, comm.WorldRanks(c.P()), 0), cd, lcp, SeamOptions{Out: outs[me].output(lcp, origins)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for dst, got := range outs {
		seqs := make([]merge.Sequence, p)
		for src := range seqs {
			var err error
			if seqs[src], err = oneShot(format, origins, buckets[src][dst]); err != nil {
				t.Fatal(err)
			}
		}
		want, work := merge.Merge(seqs, lcp)
		label := fmt.Sprintf("PE %d", dst)
		if len(got.Strings) != len(want.Strings) || (got.Strings == nil) != (want.Strings == nil) {
			t.Fatalf("%s: %d strings, want %d", label, len(got.Strings), len(want.Strings))
		}
		for i := range want.Strings {
			if !bytes.Equal(got.Strings[i], want.Strings[i]) || got.Strings[i] == nil {
				t.Fatalf("%s: string %d = %q (nil: %v), want %q", label, i, got.Strings[i], got.Strings[i] == nil, want.Strings[i])
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
}

// TestHomeRunAliasesInput pins what the sorters tell their Output about
// the strings' lifetimes, for every merge-based sorter at p = 4: an output
// string of the run marked stable IS one of the PE's input strings (PDMS: a
// prefix of one, and exactly the items whose origin is this PE), and the
// received ones, copied by the collecting Output, fill one array exactly
// as long as their extents' characters, back to back in output order.
func TestHomeRunAliasesInput(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(77))
	global := make([][]byte, 4000)
	for i := range global {
		global[i] = make([]byte, 1+rng.Intn(30)) // non-empty: one backing array each
		for j := range global[i] {
			global[i][j] = byte('a' + rng.Intn(4))
		}
	}
	locals := scatter(global, p)
	for _, a := range []struct {
		name string
		run  func(c *comm.Comm, ss [][]byte) fragment
	}{
		{"MS", func(c *comm.Comm, ss [][]byte) fragment { return mergeSort(c, ss, MSOptions{LCP: true}) }},
		{"MS-simple", func(c *comm.Comm, ss [][]byte) fragment { return mergeSort(c, ss, MSOptions{}) }},
		{"FKmerge", func(c *comm.Comm, ss [][]byte) fragment { return fkMerge(c, ss, FKOptions{}) }},
		{"PDMS", func(c *comm.Comm, ss [][]byte) fragment { return pdms(c, ss, PDMSOptions{}) }},
	} {
		t.Run(a.name, func(t *testing.T) {
			results, _ := runDistributed(t, locals, a.run)
			for pe, res := range results {
				input := make(map[*byte][]byte, len(locals[pe]))
				for _, s := range locals[pe] {
					input[unsafe.SliceData(s)] = s
				}
				var base *byte
				own, remote := 0, 0
				for k, s := range res.Strings {
					in, home := input[unsafe.SliceData(s)]
					if res.Sats != nil && home != (res.Sats[k]>>32 == uint64(pe)) {
						t.Fatalf("PE %d: item %d from PE %d aliases an input string: %v", pe, k, res.Sats[k]>>32, home)
					}
					if home {
						if !bytes.HasPrefix(in, s) {
							t.Fatalf("PE %d: item %d %q is not its input string %q", pe, k, s, in)
						}
						own++
						continue
					}
					if base == nil {
						base = unsafe.SliceData(s)
					}
					if unsafe.SliceData(s) != (*byte)(unsafe.Add(unsafe.Pointer(base), remote)) {
						t.Fatalf("PE %d: received item %d is not next in the arena", pe, k)
					}
					remote += len(s)
				}
				if own == 0 || own == len(res.Strings) {
					t.Fatalf("PE %d: %d of %d items are its own: no mix to check", pe, own, len(res.Strings))
				}
				if remote != cap(res.arena) {
					t.Fatalf("PE %d: the received items hold %d characters, their extents %d", pe, remote, cap(res.arena))
				}
			}
		})
	}
}

// landHome lands the buckets — slot home is the own run, which stays
// resident as own and never arrives — in RAM (pool == nil) or under the
// budget, and merges them: into a collecting Output, or into a sorted-run
// file that is read back.
func landHome(t *testing.T, pool *spill.Pool, format wire.RunFormat, origins bool, home int, own *merge.Sequence, buckets ...[]byte) (out fragment) {
	t.Helper()
	lcp := format == wire.RunStringsLCP
	sent := append([][]byte(nil), buckets...)
	sent[home] = nil
	if err := comm.New(1).Run(func(c *comm.Comm) error {
		runs := routeRuns(c, arrivals(c, sent), len(sent), format, origins, nil, pool)
		runs[home] = encodedRun{home: own, n: own.Len()}
		if pool == nil {
			sinkMerge(c, nil, runs, format, origins, lcp, out.output(lcp, origins))
			return nil
		}
		var file bytes.Buffer
		w, err := spill.NewRunWriter(&file, spill.RunWriterOpts{LCP: lcp, Sats: origins}, nil, 0)
		if err != nil {
			return err
		}
		sinkMerge(c, pool, runs, format, origins, lcp, &Output{Open: func([]Extent) (merge.Sink, error) {
			return func(_ int, s []byte, lcp int32, sat uint64) error { return w.Add(s, lcp, sat) }, nil
		}})
		if err := w.Close(); err != nil {
			return err
		}
		out.Strings, out.LCPs, out.Sats, err = spill.ReadRunFile(&file)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHomeRunStaysHome lands three PDMS-layout buckets, the middle one the
// PE's own, whose strings are four times the budget: in RAM only the own
// run is stable, and a sink that copies the others copies exactly the two
// received runs' characters; under the budget no own
// byte is metered or written to a page file — the pool holds exactly the
// received buckets, which fit. Both outputs equal the one-shot merge of
// all three buckets encoded, and the same landing with the own bucket
// encoded too spills.
func TestHomeRunStaysHome(t *testing.T) {
	const budget, page, home = 16 << 10, 512, 1
	gen := func(src, n int) [][]byte {
		ss := make([][]byte, n)
		for i := range ss {
			ss[i] = []byte(fmt.Sprintf("%s%06d/%d", strings.Repeat("k", i%5), i*7, src))
		}
		sort.Slice(ss, func(i, j int) bool { return bytes.Compare(ss[i], ss[j]) < 0 })
		return ss
	}
	runs := [][][]byte{gen(0, 200), gen(1, 4*budget/12), gen(2, 300)}
	buckets := make([][]byte, len(runs))
	remoteBytes, remoteChars := 0, 0
	for src, ss := range runs {
		buckets[src] = encodeBucket(wire.RunStringsLCP, true, ss, src)
		if src != home {
			remoteBytes += len(buckets[src])
			for _, s := range ss {
				remoteChars += len(s)
			}
		}
	}
	seqs := make([]merge.Sequence, len(buckets))
	for src, b := range buckets {
		var err error
		if seqs[src], err = oneShot(wire.RunStringsLCP, true, b); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := merge.Merge(seqs, true)
	check := func(label string, got fragment) {
		t.Helper()
		if fmt.Sprint(got.Strings) != fmt.Sprint(want.Strings) || fmt.Sprint(got.LCPs) != fmt.Sprint(want.LCPs) ||
			fmt.Sprint(got.Sats) != fmt.Sprint(want.Sats) {
			t.Fatalf("%s: output differs from the one-shot merge", label)
		}
	}
	own := homeRun(wire.RunStringsLCP, true, runs[home], home)

	got := landHome(t, nil, wire.RunStringsLCP, true, home, own, buckets...)
	check("in RAM", got)
	for i, e := range got.extents {
		if e.Stable != (i == home) || e.N != int64(len(runs[i])) {
			t.Fatalf("in RAM: run %d has extent %+v; %d items, stable only at %d", i, e, len(runs[i]), home)
		}
	}
	if cap(got.arena) != remoteChars {
		t.Fatalf("in RAM: %d characters copied, the received runs hold %d", cap(got.arena), remoteChars)
	}

	newPool := func() *spill.Pool {
		pool, err := spill.NewPool(spill.Config{Budget: budget, PageSize: page, Dir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		return pool
	}
	pool := newPool()
	got = landHome(t, pool, wire.RunStringsLCP, true, home, own, buckets...)
	check("budget", got)
	if pool.BytesWritten() != 0 || pool.Peak() != int64(remoteBytes) || pool.Room() != budget {
		t.Fatalf("budget: %d bytes spilled, peak %d, %d live; want 0, the %d received bytes, 0",
			pool.BytesWritten(), pool.Peak(), budget-pool.Room(), remoteBytes)
	}

	pool = newPool()
	routeArrivals(t, pool, true, buckets...)
	if pool.BytesWritten() == 0 {
		t.Fatal("the own bucket, encoded and routed, did not spill: the budget proves nothing")
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

// BenchmarkLanding is the rung of Step 4 in RAM: one PE's p = 4 buckets —
// each a quarter of a COMMONCRAWL-like input (the cc_ms_* workloads'
// generator) or of a 500-character D/N input (dnlong_ms_tcp's shape),
// sorted and front-coded as Step 3 ships them — landed and merged into the
// output: all four received and encoded (landing), the PE's own bucket
// resident and three received (home, what the sorters run), and the
// one-shot pair the landing replaced (decode every bucket whole, then
// merge.MergeLCP). Bytes are the output characters.
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
		var own merge.Sequence
		chars := 0
		for src := range buckets {
			ss := in.gen(src)
			lcps, _ := strsort.SortLCP(ss, nil)
			buckets[src] = wire.EncodeStringsLCP(ss, lcps)
			if src == 0 {
				own = merge.Sequence{Strings: ss, LCPs: lcps}
			}
			for _, s := range ss {
				chars += len(s)
			}
		}
		landing := func(home *merge.Sequence) func(b *testing.B) {
			return func(b *testing.B) {
				b.SetBytes(int64(chars))
				b.ReportAllocs()
				sent := append([][]byte(nil), buckets...)
				if home != nil {
					sent[0] = nil
				}
				if err := comm.New(1).Run(func(c *comm.Comm) error {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						recv := arrivals(c, sent) // the transport's buffers
						b.StartTimer()
						runs := routeRuns(c, recv, p, wire.RunStringsLCP, false, nil, nil)
						if home != nil {
							runs[0] = encodedRun{home: home, n: home.Len()}
						}
						var out fragment
						sinkMerge(c, nil, runs, wire.RunStringsLCP, false, true, out.output(true, false))
						sink += int64(len(out.Strings))
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(in.name+"/landing", landing(nil))
		b.Run(in.name+"/home", landing(&own))
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
