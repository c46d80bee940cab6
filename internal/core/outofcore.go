// The landing of the Step-3 exchange, in RAM and under a memory budget. The
// buckets travel through exchangeEncoded like every other run's; each
// received bucket becomes ONE run that stays encoded until the Step-4 loser
// tree pulls it: the tree reads every run through a wire.RunCursor that
// decodes one string per pull into one reused buffer (plus, for PDMS, a
// second window over the bucket's origin column). The two landings differ
// only in where a run's bytes wait; the merge's output goes into the
// caller's Output (SeamOptions.Out) in both.
//
// The PE's own bucket never arrives: it is its slice of the PE's sorted
// strings (the caller's array read through Step 1's order; PDMS's prefix
// array), merged at the PE's own index (so ties and billed work are those of
// the all-encoded landing), output as it is and never metered or paged.
//
// Every received bucket is walked whole as it lands: the strings as the
// one-shot decoders would read them (wire.RunExtent) and, for PDMS, one
// varint per origin. The walk yields the run's string count and character
// total, so a corrupt bucket fails before any output exists and the PE's
// output size is known before its merge starts.
//
// In RAM, a received run is the transport buffer it arrived in, walked on
// the PE's pool as it arrives, and released once the merge is done. The
// Output learns every run's extent and whether its strings outlive the
// merge (only the own bucket's do), so a sink that keeps the strings can
// copy just the received ones, into one exactly sized array.
//
// Under a budget, each bucket is walked and routed on the PE goroutine into
// its run: wholly resident as its transport buffer when the spill pool's
// budget has room for all of it, otherwise as many of its bytes resident as
// there is room for, copied out, and the rest in a per-run page file, the
// transport buffer released at once. The cursors page the spilled part back
// in a span at a time. A run's bytes reach its cursor in bucket order
// whether they waited in RAM or in the page file, so the decoded runs — and
// with them the merged output and every deterministic statistic — are
// byte-identical to the in-RAM run. Where bytes wait lives on the measured
// channels only: SpillBytesWritten/Read, PeakLiveBytes and the
// write-behind CPU share. What the pool meters is the resident bytes and
// one paged-in span per window. Received buckets are unmetered until they
// are routed.
package core

import (
	"fmt"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
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
	held     bool // resident is the transport buffer, released after the merge
	file     *spill.File
	// sect are the byte ranges the run's windows read: the run itself, or
	// for PDMS's composite bucket the prefix blob and the origin column.
	sect    [2][2]int64
	metered int64 // resident and paged-in bytes reserved in the pool
	// n is the run's string count and chars the characters its items take
	// in the output: the strings' own, or with a line measure the lengths
	// of the lines their origins name.
	n, chars int
}

// routeRuns receives the n buckets of a posted exchange and lands each,
// whole, as its run: held in RAM (pool == nil) or routed to its budgeted
// run. origins marks PDMS's composite layout: a length-prefixed
// RunStringsLCP blob of prefixes trailed by a length-prefixed origin column
// (count, then one varint per prefix). line, if non-nil, measures an item
// by its origin (Output.Line).
func routeRuns(c *comm.Comm, recv func() (int, []byte, bool), n int, format wire.RunFormat, origins bool, line func(uint64) int, pool *spill.Pool) []encodedRun {
	runs := make([]encodedRun, n)
	if pool != nil {
		for {
			src, msg, ok := recv()
			if !ok {
				return runs
			}
			if !runs[src].route(pool, src, msg, format, origins, line) {
				c.Release(msg)
			}
		}
	}
	wgrp := c.Pool().Group()
	for {
		src, msg, ok := recv()
		if !ok {
			break
		}
		wgrp.Go(func() {
			run := &runs[src]
			run.walk(msg, format, origins, line)
			run.resident, run.held = msg, true
		})
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

// walk validates a whole received bucket — the strings as the one-shot
// decoders would (wire.RunExtent) and, for a composite bucket, an origin
// column of exactly one value per prefix — and records its sections, its
// string count and its output characters (measured by line over the
// origins when line is non-nil). A corrupt bucket panics here, before any
// output exists.
func (run *encodedRun) walk(bucket []byte, format wire.RunFormat, origins bool, line func(uint64) int) {
	run.sect = sections(bucket, origins)
	sec := func(i int) []byte { return bucket[run.sect[i][0]:run.sect[i][1]] }
	n, chars, err := wire.RunExtent(format, sec(0))
	if err == nil && origins {
		col := wire.NewReader(sec(1))
		var cnt uint64
		if cnt, err = col.Uvarint(); err == nil && cnt != uint64(n) {
			err = wire.ErrCorrupt
		}
		if line != nil {
			chars = 0
		}
		for i := 0; err == nil && i < n; i++ {
			var sat uint64
			if sat, err = col.Uvarint(); err == nil && line != nil {
				chars += line(sat)
			}
		}
	}
	if err != nil {
		panic("core: corrupt exchanged run: " + err.Error())
	}
	run.n, run.chars = n, chars
}

// route walks one whole received bucket and hands it to its budgeted run.
// When the budget has room for all of it, the run holds the transport
// buffer itself, metered at its length, and route reports true: the buffer
// is the run's until the merge is done. Otherwise the prefix the budget
// still has room for stays resident, copied out of the transport buffer as
// it is, the rest is appended to the run's page file, and the caller
// releases the buffer. Appending whole pages allocates the file's pending
// buffer once per page and keeps a single bucket-sized write from queueing
// behind the meter. The spill decision is a pure scheduling choice — it can
// differ run to run and transport to transport — and therefore only ever
// moves measured gauges, never a deterministic counter.
func (run *encodedRun) route(pool *spill.Pool, idx int, bucket []byte, format wire.RunFormat, origins bool, line func(uint64) int) (held bool) {
	run.walk(bucket, format, origins, line)
	keep := int(min(int64(len(bucket)), pool.Room()))
	run.metered = int64(keep)
	pool.Reserve(run.metered)
	if keep == len(bucket) {
		run.resident, run.held = bucket, true
		return true
	}
	run.resident = append([]byte(nil), bucket[:keep]...)
	bucket = bucket[keep:]
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
	return false
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

// sinkMerge is the Step-4 merge of both landings: it opens out with the
// runs' extents, drains the runs through the loser tree (LCP-aware if lcp)
// into the sink it returns, then completes the write-behind chains of a
// budgeted landing (pool non-nil), bills their busy time to the measured
// CPU channel, releases what the runs still have metered and the transport
// buffers they hold, and closes the page descriptors (the pool's Close
// unlinks the files themselves). It returns the merge's character work. A
// failing open or sink panics, after the cleanup.
func sinkMerge(c *comm.Comm, pool *spill.Pool, runs []encodedRun, format wire.RunFormat, origins, lcp bool, out *Output) (work int64) {
	ext := make([]Extent, len(runs))
	for i := range runs {
		ext[i] = Extent{N: int64(runs[i].n), Chars: int64(runs[i].chars), Stable: runs[i].home != nil}
	}
	sink, err := out.Open(ext)
	if err == nil {
		srcs := make([]merge.Source, len(runs))
		for i := range runs {
			srcs[i] = runs[i].source(pool, format, origins)
		}
		// A one-task fork of the PE's pool, so the merge's span lands on
		// worker 0's trace track and its busy time on the merge phase's CPU
		// channel.
		c.AddCPU(c.ForEachSpan("merge", 1, func(int) {
			_, work, err = merge.MergeSink(srcs, lcp, sink)
		}))
	}
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
		if run.held {
			c.Release(run.resident)
		}
		if run.metered != 0 {
			pool.Release(run.metered)
			run.metered = 0
		}
	}
	c.AddCPU(busy)
	if err != nil {
		panic("core: output: " + err.Error())
	}
	return work
}

// drain hands an already sorted fragment to out as its one, stable run —
// the exit of hQuick and of the p == 1 paths, which have no Step-4 merge.
func drain(out *Output, seq merge.Sequence) {
	sink, err := out.Open([]Extent{{N: int64(seq.Len()), Chars: out.size(seq), Stable: true}})
	for src := seq.Source(); err == nil; {
		s, lcp, sat, ok := src.Next()
		if !ok {
			return
		}
		err = sink(0, s, lcp, sat)
	}
	panic("core: output: " + err.Error())
}
