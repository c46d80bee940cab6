// The budgeted landing of the Step-3 exchange: the bounded-memory
// counterpart of decodeOnPool. The buckets travel through exchangeEncoded
// like every other run's; what differs is where the received bytes wait
// and where the merge's output goes. Each received bucket is routed on the
// PE goroutine into one budgeted run — its encoded bytes, as many of them
// resident as the spill pool's budget has room for and the rest in a
// per-run page file — and its transport buffer is released. A run stays
// ENCODED until the merge pulls it: the loser tree reads every run through
// a wire.RunCursor that decodes one string per pull into one reused
// buffer, paging the spilled part back in a span at a time, and drains
// straight into a sorted-run writer instead of an output arena. A run's
// bytes reach its cursor in bucket order whether they waited in RAM or in
// the page file, so the decoded runs — and with them the merged output and
// every deterministic statistic — are byte-identical to the in-RAM run.
// Only where bytes wait (RAM vs page file) and where the output lands
// (arena vs run file) differ, and those differences live on the measured
// channels: SpillBytesWritten/Read, PeakLiveBytes and the write-behind CPU
// share. What the pool meters here is the resident prefixes and one
// paged-in span per window. Received buckets are unmetered until they are
// routed, exactly as they are until decoded in the in-RAM run.
package core

import (
	"fmt"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/wire"
)

// spillRun is one incoming run, still encoded, read as ONE byte sequence:
// the resident prefix of the bucket followed by the page file's bytes
// (file == nil: the whole bucket is resident). A run switches to its file
// at most once — reverting would reorder its bytes — so the file, once
// created, receives all that is left of the bucket. It is confined to the
// PE goroutine, like the Comm; only the page writes run concurrently
// (spill.File's write-behind chain).
type spillRun struct {
	resident []byte
	file     *spill.File
	// sect are the byte ranges the run's windows read: the run itself, or
	// for PDMS's composite bucket the prefix blob and the origin column.
	sect    [2][2]int64
	metered int64 // resident and paged-in bytes reserved in the pool
}

// routeRuns receives the n buckets of a posted exchange and routes each,
// whole, to its budgeted run, releasing its buffer. origins marks PDMS's
// composite layout: a length-prefixed RunStringsLCP blob of prefixes
// trailed by a length-prefixed origin column (count, then one varint per
// prefix).
func routeRuns(c *comm.Comm, recv func() (int, []byte, bool), n int, origins bool, pool *spill.Pool) []spillRun {
	runs := make([]spillRun, n)
	for {
		src, msg, ok := recv()
		if !ok {
			return runs
		}
		runs[src].route(pool, src, msg, origins)
		c.Release(msg)
	}
}

// route hands one whole received bucket to its run: the prefix the budget
// still has room for stays resident, copied out of the transport buffer as
// it is, and the rest is appended to the run's page file. Appending whole
// pages allocates the file's pending buffer once per page and keeps a
// single bucket-sized write from queueing behind the meter. The spill
// decision is a pure scheduling choice — it can differ run to run and
// transport to transport — and therefore only ever moves measured gauges,
// never a deterministic counter.
func (run *spillRun) route(pool *spill.Pool, idx int, bucket []byte, origins bool) {
	run.sect[0] = [2]int64{0, int64(len(bucket))}
	if origins {
		// The same two length prefixes the in-RAM decode strips.
		r := wire.NewReader(bucket)
		for i := range run.sect {
			sec, err := r.BytesPrefixed()
			if err != nil {
				panic("core: corrupt exchanged run: " + err.Error())
			}
			end := int64(len(bucket) - r.Remaining())
			run.sect[i] = [2]int64{end - int64(len(sec)), end}
		}
	}
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
// of the run: the resident part as one span, then the page file a page at a
// time. Only the latest paged-in span is metered — the window is through
// with a span when it asks for the next — and a span served from the
// file's still-pending tail is metered a second time, the safe direction.
func (run *spillRun) pager(pool *spill.Pool, off, end int64) func() []byte {
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

// spillSource is the merge's pull view of one budgeted run: a cursor over
// the run's strings and, for PDMS, a second window over the origin column
// of the same byte sequence. A string it returns is the cursor's reused
// buffer, valid only until the source is pulled again — which is exactly
// the guarantee merge.MergeSink needs and no more.
type spillSource struct {
	cur     *wire.RunCursor
	origins *wire.Window // nil without an origin column
}

// source opens the run's windows. The in-RAM decode rejects a bucket whose
// two declared counts differ; both are at hand here, so this one does too.
func (run *spillRun) source(pool *spill.Pool, format wire.RunFormat, origins bool) *spillSource {
	s := &spillSource{cur: wire.NewRunCursor(format, run.pager(pool, run.sect[0][0], run.sect[0][1]))}
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
			panic("core: corrupt spilled run: " + err.Error())
		}
	}
	return s
}

// Next returns the run's next string, paging until it is decodable;
// ok=false reports the run exhausted.
func (s *spillSource) Next() (str []byte, lcp int32, sat uint64, ok bool) {
	str, lcp, ok, err := s.cur.Next()
	if ok && s.origins != nil {
		sat, err = s.origins.Uvarint()
	}
	if err != nil {
		panic("core: corrupt spilled run: " + err.Error())
	}
	return str, lcp, sat, ok
}

// sinkMerge drains the budgeted runs through the loser tree into the run
// writer, then completes the write-behind chains, bills their busy time to
// the measured CPU channel, releases what the runs still have metered and
// closes the page descriptors (the pool's Close unlinks the files
// themselves). The item sequence and the returned work are bit-identical
// to the in-RAM merge — it is the same tree — only where the output lands
// differs.
func sinkMerge(c *comm.Comm, pool *spill.Pool, runs []spillRun, format wire.RunFormat, origins, lcp bool, out *spill.RunWriter) (n, work int64) {
	srcs := make([]merge.Source, len(runs))
	for i := range runs {
		srcs[i] = runs[i].source(pool, format, origins)
	}
	n, work, err := merge.MergeSink(srcs, lcp, out.Add)
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

// drainSorted streams an already materialized sorted fragment into the
// budget pipeline's run writer — the hQuick path and the p == 1 fast
// paths, which have no Step-4 merge to sink.
func drainSorted(out *spill.RunWriter, ss [][]byte, lcps []int32, sats []uint64) int64 {
	for i, s := range ss {
		var lcp int32
		if lcps != nil && i > 0 {
			lcp = lcps[i]
		}
		var sat uint64
		if sats != nil {
			sat = sats[i]
		}
		if err := out.Add(s, lcp, sat); err != nil {
			panic("core: run writer: " + err.Error())
		}
	}
	return int64(len(ss))
}
