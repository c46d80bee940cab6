// The budgeted landing of the Step-3 exchange: the bounded-memory
// counterpart of decodeOnPool. The buckets travel through exchangeEncoded
// like every other run's; what differs is where the received bytes wait
// and where the merge's output goes. Each received bucket is routed on the
// PE goroutine, piece by piece, into one incremental run reader per source —
// or, once the decoded arenas exceed the spill pool's budget, into a
// per-run page file that is paged back in ahead of the merge cursor — and
// its transport buffer is released. The loser tree then drains straight
// into a sorted-run writer instead of an output arena, and each run's
// consumed arena prefix is recycled as the merge passes it. A run's bytes
// reach its reader in bucket order whether they take the resident or the
// spilled route, so the decoded runs — and with them the merged output and
// every deterministic statistic — are byte-identical to the in-RAM run.
// Only where bytes wait (RAM vs page file) and where the output lands
// (arena vs run file) differ, and those differences live on the measured
// channels: SpillBytesWritten/Read, PeakLiveBytes and the write-behind CPU
// share. Received buckets are unmetered until they are routed, exactly as
// they are until decoded in the in-RAM run.
package core

import (
	"encoding/binary"
	"fmt"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/spill"
	"dss/internal/wire"
)

// routePiece bounds the unit of the resident-or-spill decision: a received
// bucket is decided in pieces of at most this many bytes, and never more
// than one spill page.
const routePiece = 8 << 10

// spillStream holds one budgeted run per source. It is confined to the PE
// goroutine, like the Comm; only the page writes run concurrently
// (spill.File's write-behind chain).
type spillStream struct {
	c     *comm.Comm
	pool  *spill.Pool
	runs  []*spillRun
	force bool // spill every run from its first byte (composite buckets)
}

// spillRun is one incoming run's state: resident (file == nil, the whole
// bucket fed the reader directly) or spilled (the rest of the bucket went to
// the page file and is paged back in sequentially ahead of the merge
// cursor). A run switches to spilled at most once — reverting would reorder
// its bytes — so the file, once created, receives all that is left of the
// bucket even if the pool drops back under budget. The reader decodes the whole run, or,
// for a composite bucket, the prefix blob inside it (compositeSource).
type spillRun struct {
	r       *wire.RunReader
	file    *spill.File
	fed     int64 // page-file bytes fed back to the reader so far
	metered int64 // reader arena bytes currently reserved in the pool
}

// routeRuns receives the n buckets of a posted exchange and routes each,
// whole, to its budgeted run, releasing its buffer. origins marks PDMS's
// composite layout, which trails the origin column behind the whole prefix
// blob: no item can be decoded with its origin before the blob's end, so
// feeding a reader on arrival would grow the resident arenas to the full
// received volume. Those runs go to their page files from the first byte
// and are merged from a two-cursor file view instead (compositeSource).
func routeRuns(c *comm.Comm, recv func() (int, []byte, bool), n int, format wire.RunFormat, origins bool, pool *spill.Pool) *spillStream {
	st := &spillStream{c: c, pool: pool, runs: make([]*spillRun, n), force: origins}
	for i := range st.runs {
		st.runs[i] = &spillRun{r: wire.NewRunReader(format)}
	}
	for {
		src, msg, ok := recv()
		if !ok {
			return st
		}
		st.route(src, msg)
		c.Release(msg)
	}
}

// route hands one whole received bucket to its run: a resident prefix,
// fed to the run's reader piece by piece while the pool has budget, and a
// spilled rest, appended to the run's page file. Deciding per piece keeps a
// resident run from overshooting the budget by more than a piece;
// appending whole pages allocates the file's pending buffer once per page
// and keeps a single bucket-sized write from queueing behind the meter.
// The spill decision is a pure scheduling choice — it can differ run to run
// and transport to transport — and therefore only ever moves measured
// gauges, never a deterministic counter.
func (st *spillStream) route(idx int, bucket []byte) {
	run := st.runs[idx]
	page := st.pool.PageSize()
	for len(bucket) > 0 && !st.force && !st.pool.Over() {
		piece := bucket[:min(len(bucket), routePiece, page)]
		bucket = bucket[len(piece):]
		run.r.Feed(piece)
		st.meter(run)
	}
	if len(bucket) == 0 {
		run.r.Finish()
		return
	}
	f, err := st.pool.CreateFile(fmt.Sprintf("run%d", idx))
	if err != nil {
		panic("core: spill: " + err.Error())
	}
	run.file = f
	for len(bucket) > 0 {
		piece := bucket[:min(len(bucket), page)]
		bucket = bucket[len(piece):]
		f.Append(piece)
	}
}

// meter reserves the run reader's arena growth against the budget.
func (st *spillStream) meter(run *spillRun) {
	if a := int64(run.r.ArenaBytes()); a > run.metered {
		st.pool.Reserve(a - run.metered)
		run.metered = a
	}
}

// recycle returns the run's consumed arena to the budget. Legal because
// the merge sinks every string (the run writer copies it) before it pulls
// the string's source again, so no live pointer reaches the freed block.
// (The reader's LCP rematerialization still pins one stale block via its
// prev buffer — part of the documented fixed overhead.)
func (st *spillStream) recycle(run *spillRun) {
	if freed := int64(run.r.Recycle()); freed > 0 {
		st.pool.Release(freed)
		run.metered -= freed
	}
}

// readSpan pages up to max bytes of the run's file in, starting at off.
func (run *spillRun) readSpan(off int64, max int) []byte {
	b, err := run.file.ReadSpan(off, max)
	if err != nil {
		panic("core: spill: " + err.Error())
	}
	return b
}

// feedMore makes progress for a stalled reader: recycle what the merge
// has consumed, then page the next span of spilled bytes back in, or —
// every byte of the run having been fed — finish the reader so it reports
// completion, or truncation, on the next pull.
func (st *spillStream) feedMore(run *spillRun) {
	st.recycle(run)
	if run.file == nil || run.fed >= run.file.Size() {
		run.r.Finish()
		return
	}
	b := run.readSpan(run.fed, st.pool.PageSize())
	run.fed += int64(len(b))
	run.r.Feed(b)
	st.meter(run)
}

// sinkMerge drains the budgeted runs through the loser tree into the run
// writer, then completes the write-behind chains, bills their busy time to
// the measured CPU channel, releases the metered arenas and closes the page
// descriptors (the pool's Close unlinks the files themselves). The item
// sequence and the returned work are bit-identical to the in-RAM merge — it
// is the same tree — only where the output lands differs.
func (st *spillStream) sinkMerge(lcp bool, out *spill.RunWriter) (n, work int64) {
	srcs := make([]merge.Source, len(st.runs))
	for i, run := range st.runs {
		if st.force {
			srcs[i] = &compositeSource{st: st, run: run}
		} else {
			srcs[i] = &spillSource{st: st, run: run}
		}
	}
	n, work, err := merge.MergeSink(srcs, lcp, out.Add)
	var busy int64
	for _, run := range st.runs {
		if run.file != nil {
			b, ferr := run.file.Finish()
			busy += b
			if ferr != nil {
				panic("core: spill write: " + ferr.Error())
			}
			run.file.Close()
		}
		st.recycle(run)
		st.pool.Release(run.metered)
		run.metered = 0
	}
	st.c.AddCPU(busy)
	if err != nil {
		panic("core: run writer: " + err.Error())
	}
	return n, work
}

// spillSource is the merge's pull view of one budgeted run. A string it
// returns is only valid until the source is pulled again — the arena
// behind consumed strings is recycled — which is exactly the guarantee
// merge.MergeSink needs and no more.
type spillSource struct {
	st  *spillStream
	run *spillRun
}

// Next returns the run's next string, paging until it is decodable;
// ok=false reports the run exhausted.
func (s *spillSource) Next() ([]byte, int32, uint64, bool) {
	for {
		it, ok, err := s.run.r.Next()
		switch {
		case err != nil:
			panic("core: corrupt spilled run: " + err.Error())
		case ok:
			return it.S, it.LCP, 0, true
		case s.run.r.Done():
			return nil, 0, 0, false
		}
		s.st.feedMore(s.run)
	}
}

// compositeSource is the merge's pull view of one PDMS bucket: a
// length-prefixed RunStringsLCP blob of prefixes followed by a
// length-prefixed origin column (count, then one varint per prefix). The
// whole bucket lives in the run's page file (spillStream.force); two
// cursors page it back in independently — the run's reader over the blob
// section and a varint scanner over the trailing origin section — so the
// resident footprint is a page or two per run even though no (prefix,
// origin) pair exists before the bucket's last byte.
type compositeSource struct {
	st  *spillStream
	run *spillRun

	end int64 // absolute end of the blob section (run.fed is its cursor)
	hdr bool  // blob-length header parsed

	obuf []byte // buffered origin-section bytes
	oMet int64  // obuf bytes reserved in the pool
	opos int    // consumed prefix of obuf
	oabs int64  // next origin byte (absolute file offset) to page in
	ohdr int    // 0 = before oSize varint, 1 = before count, 2 = origins
}

// maxSpillSection mirrors the transports' frame limit: a declared blob
// length beyond it cannot belong to a real bucket.
const maxSpillSection = 1<<31 - 1

// Next returns the run's next (prefix, origin) pair, paging the bucket as
// needed; ok=false reports exhaustion.
func (s *compositeSource) Next() ([]byte, int32, uint64, bool) {
	run := s.run
	if run.file == nil {
		// No bytes ever arrived for this run; a PDMS bucket is never empty
		// on the wire, so nothing can be decoded from it.
		return nil, 0, 0, false
	}
	if !s.hdr {
		v, n := binary.Uvarint(run.readSpan(0, binary.MaxVarintLen64))
		if n <= 0 || v > maxSpillSection {
			panic("core: corrupt spilled run: bad composite header")
		}
		run.fed = int64(n)
		s.end = int64(n) + int64(v)
		s.oabs = s.end
		s.hdr = true
	}
	for {
		it, ok, err := run.r.Next()
		switch {
		case err != nil:
			panic("core: corrupt spilled run: " + err.Error())
		case ok:
			return it.S, it.LCP, s.nextOrigin(), true
		case run.r.Done():
			s.obuf = nil
			s.meterO()
			return nil, 0, 0, false
		}
		s.feedBlob()
	}
}

// feedBlob recycles the consumed prefix arena and pages the next span of
// the blob section into the run's reader.
func (s *compositeSource) feedBlob() {
	run := s.run
	s.st.recycle(run)
	if run.fed >= s.end {
		run.r.Finish() // surfaces truncation through the next Next
		return
	}
	b := run.readSpan(run.fed, int(min(int64(s.st.pool.PageSize()), s.end-run.fed)))
	if len(b) == 0 {
		panic("core: corrupt spilled run: composite blob truncated")
	}
	run.fed += int64(len(b))
	run.r.Feed(b)
	s.st.meter(run)
}

// nextOrigin returns the next origin varint of the trailing section,
// paging more of the file in as needed.
func (s *compositeSource) nextOrigin() uint64 {
	for {
		if v, n := binary.Uvarint(s.obuf[s.opos:]); n > 0 {
			s.opos += n
			if s.ohdr == 2 {
				return v
			}
			// Section length, then origin count: the count is not checked
			// here — a mismatch with the string count surfaces as a
			// truncation panic when the origins run out.
			s.ohdr++
			continue
		} else if n < 0 {
			panic("core: corrupt spilled run: bad origin varint")
		}
		// Compact the consumed origin bytes and page in the next span.
		s.obuf = append(s.obuf[:0], s.obuf[s.opos:]...)
		s.opos = 0
		b := s.run.readSpan(s.oabs, s.st.pool.PageSize())
		if len(b) == 0 {
			panic("core: corrupt spilled run: composite origins truncated")
		}
		s.oabs += int64(len(b))
		s.obuf = append(s.obuf, b...)
		s.meterO()
	}
}

// meterO reconciles the origin buffer's pool reservation with its size.
func (s *compositeSource) meterO() {
	d := int64(len(s.obuf)) - s.oMet
	if d > 0 {
		s.st.pool.Reserve(d)
	} else {
		s.st.pool.Release(-d)
	}
	s.oMet += d
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
