// The landing of the Step-3 exchange, in RAM and under a memory budget. The
// buckets travel through exchangeEncoded like every other run's; each
// received bucket becomes ONE run that stays encoded until the Step-4 loser
// tree pulls it: the tree reads every run through a wire.RunCursor that
// decodes one string per pull into one reused buffer (plus, for PDMS, a
// second window over the bucket's origin column). The two landings differ
// only in where a run's bytes wait and where the merge's output goes.
//
// The PE's own bucket never arrives: it is its slice of the PE's sorted
// strings (the caller's array read through Step 1's order; PDMS's prefix
// array), merged at the PE's own index (so ties and billed work are those of
// the all-encoded landing), output as it is and never metered or paged.
//
// In RAM, a received run is the transport buffer it arrived in. A
// validating walk over its varints runs on the PE's pool as the bucket
// arrives and yields its string count and character total, so a corrupt
// bucket fails before any output exists and the merge copies the received
// strings into one exactly sized arena, sub-slices of one byte array; the
// LCP and satellite columns are exact arrays. The transport buffers are
// released once the merge is done.
//
// Under a budget, each bucket is routed on the PE goroutine into its run:
// as many of its bytes resident as the spill pool's budget has room for and
// the rest in a per-run page file; its transport buffer is released at
// once. The cursors page the spilled part back in a span at a time, and the
// tree drains straight into a sorted-run writer. A run's bytes reach its
// cursor in bucket order whether they waited in RAM or in the page file, so
// the decoded runs — and with them the merged output and every
// deterministic statistic — are byte-identical to the in-RAM run. Where
// bytes wait and where the output lands live on the measured channels
// only: SpillBytesWritten/Read, PeakLiveBytes and the write-behind CPU
// share. What the pool meters is the resident prefixes and one paged-in
// span per window. Received buckets are unmetered until they are routed.
package core

import (
	"fmt"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// encodedRun is one incoming run, still encoded, read as ONE byte
// sequence: the resident bytes of the bucket followed by the page file's
// bytes (file == nil: the whole bucket is resident). A run switches to its
// file at most once — reverting would reorder its bytes — so the file, once
// created, receives all that is left of the bucket. It is confined to the
// PE goroutine, like the Comm; only the in-RAM walk and the page writes
// run concurrently.
type encodedRun struct {
	home     *merge.Sequence // non-nil: the own bucket, resident, never encoded
	resident []byte
	file     *spill.File
	// sect are the byte ranges the run's windows read: the run itself, or
	// for PDMS's composite bucket the prefix blob and the origin column.
	sect    [2][2]int64
	metered int64 // resident and paged-in bytes reserved in the pool
	// n and chars are the in-RAM walk's string count and character total.
	n, chars int
}

// routeRuns receives the n buckets of a posted exchange and lands each,
// whole, as its run: held in RAM (pool == nil) or routed to its budgeted
// run and released. origins marks PDMS's composite layout: a
// length-prefixed RunStringsLCP blob of prefixes trailed by a
// length-prefixed origin column (count, then one varint per prefix).
func routeRuns(c *comm.Comm, recv func() (int, []byte, bool), n int, format wire.RunFormat, origins bool, pool *spill.Pool) []encodedRun {
	runs := make([]encodedRun, n)
	if pool != nil {
		for {
			src, msg, ok := recv()
			if !ok {
				return runs
			}
			runs[src].route(pool, src, msg, origins)
			c.Release(msg)
		}
	}
	wgrp := c.Pool().Group()
	for {
		src, msg, ok := recv()
		if !ok {
			break
		}
		wgrp.Go(func() { runs[src].hold(msg, format, origins) })
	}
	c.AddCPU(wgrp.Wait())
	return runs
}

// sections returns the byte ranges of a bucket's windows: the whole bucket,
// or the prefix blob and the origin column of a composite one.
func sections(bucket []byte, origins bool) (sect [2][2]int64) {
	sect[0] = [2]int64{0, int64(len(bucket))}
	if origins {
		r := wire.NewReader(bucket)
		for i := range sect {
			sec, err := r.BytesPrefixed()
			if err != nil {
				panic("core: corrupt exchanged run: " + err.Error())
			}
			end := int64(len(bucket) - r.Remaining())
			sect[i] = [2]int64{end - int64(len(sec)), end}
		}
	}
	return sect
}

// hold keeps a received bucket as its run's resident bytes — the transport
// buffer itself — after validating all of it: the strings as the one-shot
// decoders would (wire.RunExtent) and, for a composite bucket, an origin
// column of exactly one value per prefix. A corrupt bucket panics here,
// before any output exists.
func (run *encodedRun) hold(bucket []byte, format wire.RunFormat, origins bool) {
	run.resident = bucket
	run.sect = sections(bucket, origins)
	n, chars, err := wire.RunExtent(format, run.span(0))
	if err == nil && origins {
		col := wire.NewReader(run.span(1))
		var cnt uint64
		if cnt, err = col.Uvarint(); err == nil && cnt != uint64(n) {
			err = wire.ErrCorrupt
		}
		for i := 0; err == nil && i < n; i++ {
			_, err = col.Uvarint()
		}
	}
	if err != nil {
		panic("core: corrupt exchanged run: " + err.Error())
	}
	run.n, run.chars = n, chars
}

// span returns section i of a wholly resident run.
func (run *encodedRun) span(i int) []byte {
	return run.resident[run.sect[i][0]:run.sect[i][1]]
}

// route hands one whole received bucket to its budgeted run: the prefix the
// budget still has room for stays resident, copied out of the transport
// buffer as it is, and the rest is appended to the run's page file.
// Appending whole pages allocates the file's pending buffer once per page
// and keeps a single bucket-sized write from queueing behind the meter. The
// spill decision is a pure scheduling choice — it can differ run to run and
// transport to transport — and therefore only ever moves measured gauges,
// never a deterministic counter.
func (run *encodedRun) route(pool *spill.Pool, idx int, bucket []byte, origins bool) {
	run.sect = sections(bucket, origins)
	keep := int(min(int64(len(bucket)), pool.Room()))
	run.resident = append([]byte(nil), bucket[:keep]...)
	run.metered = int64(keep)
	pool.Reserve(run.metered)
	if bucket = bucket[keep:]; len(bucket) == 0 {
		return
	}
	f, err := pool.CreateFile(fmt.Sprintf("run%d", idx))
	if err != nil {
		panic("core: spill: " + err.Error())
	}
	run.file = f
	for page := pool.PageSize(); len(bucket) > 0; {
		piece := bucket[:min(len(bucket), page)]
		bucket = bucket[len(piece):]
		f.Append(piece)
	}
}

// pager returns the fill function of one window over the bytes [off, end)
// of the run: a wholly resident run's section as one span; otherwise the
// resident part as one span, then the page file a page at a time. Only the
// latest paged-in span is metered — the window is through with a span when
// it asks for the next — and a span served from the file's still-pending
// tail is metered a second time, the safe direction.
func (run *encodedRun) pager(pool *spill.Pool, off, end int64) func() []byte {
	if run.file == nil {
		span := run.resident[off:end]
		return func() []byte {
			s := span
			span = nil
			return s
		}
	}
	var held int64
	return func() []byte {
		pool.Release(held)
		run.metered -= held
		held = 0
		if off >= end {
			return nil
		}
		var b []byte
		if res := int64(len(run.resident)); off < res {
			b = run.resident[off:min(end, res)]
		} else {
			var err error
			b, err = run.file.ReadSpan(off-res, int(min(int64(pool.PageSize()), end-off)))
			if err != nil {
				panic("core: spill: " + err.Error())
			}
			held = int64(len(b))
			run.metered += held
			pool.Reserve(held)
		}
		off += int64(len(b))
		return b
	}
}

// runSource is the merge's pull view of one run: a cursor over the run's
// strings and, for PDMS, a second window over the origin column of the same
// byte sequence. A string it returns is the cursor's reused buffer, valid
// only until the source is pulled again — which is exactly the guarantee
// merge.MergeSink needs and no more.
type runSource struct {
	cur     *wire.RunCursor
	origins *wire.Window // nil without an origin column
}

// source opens the run's windows (pool may be nil for a wholly resident
// run), or the home run's slice; it rejects mismatched composite counts.
func (run *encodedRun) source(pool *spill.Pool, format wire.RunFormat, origins bool) merge.Source {
	if run.home != nil {
		return run.home.Source()
	}
	s := &runSource{cur: wire.NewRunCursor(format, run.pager(pool, run.sect[0][0], run.sect[0][1]))}
	if origins {
		s.origins = wire.NewWindow(run.pager(pool, run.sect[1][0], run.sect[1][1]))
		want, err := s.cur.Count()
		got, oerr := s.origins.Uvarint()
		if err == nil {
			err = oerr
		}
		if err == nil && got != want {
			err = wire.ErrCorrupt
		}
		if err != nil {
			panic("core: corrupt exchanged run: " + err.Error())
		}
	}
	return s
}

// Next returns the run's next string, paging until it is decodable;
// ok=false reports the run exhausted.
func (s *runSource) Next() (str []byte, lcp int32, sat uint64, ok bool) {
	str, lcp, ok, err := s.cur.Next()
	if ok && s.origins != nil {
		sat, err = s.origins.Uvarint()
	}
	if err != nil {
		panic("core: corrupt exchanged run: " + err.Error())
	}
	return str, lcp, sat, ok
}

// mergeRuns is the Step-4 tree call of both landings: it drains the runs
// through the loser tree (LCP-aware if lcp) into sink, as a one-task fork
// of the PE's pool, so the merge's span lands on worker 0's trace track and
// its busy time on the merge phase's CPU channel.
func mergeRuns(c *comm.Comm, pool *spill.Pool, runs []encodedRun, format wire.RunFormat, origins, lcp bool, sink merge.Sink) (n, work int64, err error) {
	srcs := make([]merge.Source, len(runs))
	for i := range runs {
		srcs[i] = runs[i].source(pool, format, origins)
	}
	c.AddCPU(c.ForEachSpan("merge", 1, func(int) {
		n, work, err = merge.MergeSink(srcs, lcp, sink)
	}))
	return n, work, err
}

// arenaMerge merges the runs into one output whose strings are the home
// run's own strings and, for the received runs, sub-slices of one arena
// sized exactly by their walks — the LCP and satellite columns are exact
// arrays, so nothing grows by reallocation — and then releases the runs'
// transport buffers. An empty merge returns the zero Sequence.
func arenaMerge(c *comm.Comm, runs []encodedRun, format wire.RunFormat, origins, lcp bool) (out merge.Sequence, work int64) {
	n, chars := 0, 0
	for i := range runs {
		n += runs[i].n
		chars += runs[i].chars
	}
	if n > 0 {
		out.Strings = make([][]byte, n)
		if lcp {
			out.LCPs = make([]int32, n)
		}
		if origins {
			out.Sats = make([]uint64, n)
		}
	}
	arena := make([]byte, 0, chars)
	i := 0
	_, work, _ = mergeRuns(c, nil, runs, format, origins, lcp, func(run int, s []byte, h int32, sat uint64) error {
		if runs[run].home == nil {
			off := len(arena)
			arena = append(arena, s...)
			s = arena[off:len(arena):len(arena)]
		}
		out.Strings[i] = s
		if out.LCPs != nil {
			out.LCPs[i] = h
		}
		if out.Sats != nil {
			out.Sats[i] = sat
		}
		i++
		return nil
	})
	for i := range runs {
		c.Release(runs[i].resident)
	}
	return out, work
}

// sinkMerge drains the budgeted runs through the loser tree into the run
// writer, then completes the write-behind chains, bills their busy time to
// the measured CPU channel, releases what the runs still have metered and
// closes the page descriptors (the pool's Close unlinks the files
// themselves). The item sequence and the returned work are bit-identical
// to the in-RAM merge — it is the same tree — only where the output lands
// differs.
func sinkMerge(c *comm.Comm, pool *spill.Pool, runs []encodedRun, format wire.RunFormat, origins, lcp bool, out *spill.RunWriter) (n, work int64) {
	n, work, err := mergeRuns(c, pool, runs, format, origins, lcp,
		func(_ int, s []byte, lcp int32, sat uint64) error { return out.Add(s, lcp, sat) })
	var busy int64
	for i := range runs {
		run := &runs[i]
		if run.file != nil {
			b, ferr := run.file.Finish()
			busy += b
			if ferr != nil {
				panic("core: spill write: " + ferr.Error())
			}
			run.file.Close()
		}
		pool.Release(run.metered)
		run.metered = 0
	}
	c.AddCPU(busy)
	if err != nil {
		panic("core: run writer: " + err.Error())
	}
	return n, work
}

// drainSorted streams an already sorted fragment into the budget
// pipeline's run writer — the hQuick path and the p == 1 fast paths, which
// have no Step-4 merge to sink.
func drainSorted(out *spill.RunWriter, set strutil.Set, lcps []int32, sats []uint64) int64 {
	n := set.Len()
	for i := 0; i < n; i++ {
		var lcp int32
		if lcps != nil && i > 0 {
			lcp = lcps[i]
		}
		var sat uint64
		if sats != nil {
			sat = sats[i]
		}
		if err := out.Add(set.At(i), lcp, sat); err != nil {
			panic("core: run writer: " + err.Error())
		}
	}
	return int64(n)
}
