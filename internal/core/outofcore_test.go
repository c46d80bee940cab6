package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"dss/internal/comm"
	"dss/internal/spill"
	"dss/internal/wire"
)

// routeArrivals drives routeRuns — the entry point exchangeMerge hands the
// exchange's receive side to — with the given buckets arriving in order,
// one per source. The buckets are copied: routeRuns releases what it is
// handed.
func routeArrivals(t *testing.T, pool *spill.Pool, origins bool, buckets ...[]byte) []spillRun {
	t.Helper()
	next := 0
	recv := func() (int, []byte, bool) {
		if next == len(buckets) {
			return -1, nil, false
		}
		next++
		return next - 1, append([]byte(nil), buckets[next-1]...), true
	}
	var runs []spillRun
	if err := comm.New(1).Run(func(c *comm.Comm) error {
		runs = routeRuns(c, recv, len(buckets), origins, pool)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return runs
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
			run := &spillRun{}
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
	want, err := decodePrefixBucket(bucket)
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
		if _, err := decodePrefixBucket(bad); err != wire.ErrCorrupt {
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
