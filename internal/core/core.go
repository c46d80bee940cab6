// Package core implements the paper's distributed string sorting
// algorithms on the comm substrate:
//
//   - HQuick (Section IV): hypercube quicksort adapted to strings — the
//     atomic baseline and the distributed sample sorter of MS and PDMS;
//   - MergeSort (Section V): distributed string merge sort, in the
//     MS-simple configuration (no LCP optimizations) and the MS
//     configuration (LCP compression + LCP-aware multiway merging);
//   - PDMS (Section VI): distributed prefix-doubling string merge sort,
//     which approximates distinguishing prefix lengths with distributed
//     duplicate detection and transmits only those prefixes;
//   - FKMerge (Section II-C): the Fischer-Kurpicz distributed mergesort
//     baseline with centralized deterministic sample sorting and a plain
//     loser tree.
//
// All algorithms are SPMD: every PE calls the function collectively with
// its local string array and receives its fragment of the globally sorted
// output (PE i's strings ≤ PE i+1's strings, each fragment locally sorted).
// Input slices are not modified: Step 1 returns a permutation, and the
// merge-based sorters read a PE's sorted strings through it from the
// caller's array (strutil.Set) — for splitter selection, the Step-3
// encoders and the own bucket — without building a sorted copy of them.
//
// Steps 3 and 4 of the merge-based sorters go through one function,
// exchangeMerge, and Step 3 is one exchange (exchangeEncoded, shared with
// hQuick): every bucket bound for another PE is encoded into a transport
// buffer and posted as its encoder finishes, and the received buckets come
// back whole, in arrival order; the PE's own bucket stays home, merged from
// the caller's array through Step 1's order. The received buckets land the
// same way with or without a memory budget (outofcore.go): each stays
// ENCODED as one run, and the Step-4 loser tree pulls every run through a
// wire.RunCursor that decodes one string per pull. Without a budget a run is
// the transport buffer it arrived in, validated and sized on the PE's pool
// the moment it arrives — so the exchange overlaps that walk instead of
// ending at a global barrier. With a budget the run's bytes wait resident as
// far as the spill pool has room and in a page file beyond. Every sorter's
// fragment leaves through one exit, the caller's Output (SeamOptions.Out): a
// sink the caller opens once per PE with the exact extent of every run the
// fragment is made of, fed by the Step-4 merge or, where there is nothing to
// merge (hQuick, p == 1), by draining the sorted array. What the sink builds
// is the caller's choice — the arrays of a Result, a sorted-run file, a
// region of one output file, or for PDMS just the origin column, which the
// caller turns into lines once the sort is done. The deterministic
// statistics are identical on both landings and at every arrival order —
// received bytes are billed to the phase the exchange was posted in — and
// identical to a bulk-synchronous exchange (one encode arena, one copying
// Alltoallv), which the package's tests keep as the exchange's reference.
package core

import (
	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/par"
	"dss/internal/spill"
	"dss/internal/stats"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// originSat packs an origin (PE, input index) into a merge satellite word.
func originSat(pe, idx int) uint64 {
	return uint64(uint32(pe))<<32 | uint64(uint32(idx))
}

// sizeBuckets sizes the Step-3 buckets but own's on the work pool.
func sizeBuckets(c *comm.Comm, own int, size func(dst int) int) []int {
	sizes, busy := par.MapOrdered(c.Pool(), c.P(), func(dst int) int {
		if dst == own {
			return 0
		}
		return size(dst)
	})
	c.AddCPU(busy)
	return sizes
}

// exchangeEncoded is the Step-3 exchange of all four algorithms, with or
// without a memory budget: the bucket encoders run concurrently on the PE's
// work pool, each into exactly sizes[dst] bytes, the buckets are sent, the
// accounting phase is switched to next, and the receive side is handed back
// — recv yields every other member's bucket exactly once, whole, with its
// group index, and ok=false after the last. The caller owns what recv
// yields and releases it (c.Release) once it has copied its contents out:
// decodeOnPool for hQuick, the Step-4 landing for the merge-based sorters.
// The caller's own bucket (group index own) never enters the exchange: it
// is not sized, allocated, encoded, sent or yielded — and as the exchange
// never billed it, no deterministic statistic moves.
//
// Every bucket is encoded straight into its own transport buffer
// (comm.Alloc) and the exchange is posted STAGED — each of the p−1 buckets
// is posted the moment its encoder task finishes, signaled through a
// completion channel so the send and its accounting stay on the PE
// goroutine. Post takes the buffer over, so an encoded byte is allocated
// once on this PE and never copied again before it leaves (the local
// transport delivers that very buffer, tcp writes the socket from it). recv
// is the exchange's PollAny: the buckets come back in ARRIVAL order, so
// stragglers' communication hides under both the faster buckets' sends and
// whatever the caller does with the early arrivals. Received bytes stay
// billed to the posting phase and each encoder is a pure function of its
// bucket, so model time and bytes/string do not depend on the schedule;
// only wall-clock does, measured as stats.PE.Overlap and the CPU channel. A bucket whose encoder failed is never posted: its peer
// keeps waiting while this PE fails with the encoder's panic.
func exchangeEncoded(c *comm.Comm, g *comm.Group, sizes []int, own int,
	enc func(dst int, buf []byte) []byte, next stats.Phase,
) (recv func() (src int, msg []byte, ok bool)) {
	// Staged posting: the Pending is created first (it captures the
	// accounting phase and the overlap clock), encoder tasks signal their
	// bucket index on completion, and the PE goroutine posts each part as
	// the signal arrives — at width 1 the tasks run inline, the channel
	// fills in destination order, and the seam is exactly sequential.
	parts := make([][]byte, len(sizes))
	pd := g.IAlltoallvStaged()
	egrp := c.Pool().Group()
	done := make(chan int, len(sizes))
	for dst := range sizes {
		if dst == own {
			continue
		}
		parts[dst] = c.Alloc(sizes[dst])[:0]
		egrp.Go(func() {
			// Signal via defer so a panicking encoder still unblocks the
			// posting loop below: it signals −1, so its bucket is not
			// posted, and the panic itself re-raises at egrp.Wait.
			encoded := -1
			defer func() { done <- encoded }()
			buf := enc(dst, parts[dst])
			if len(buf) != sizes[dst] {
				panic("core: bucket encoder size mismatch")
			}
			parts[dst], encoded = buf, dst
		})
	}
	for i := 1; i < len(sizes); i++ {
		if dst := <-done; dst >= 0 {
			pd.Post(dst, parts[dst])
		}
	}
	c.AddCPU(egrp.Wait())
	c.SetPhase(next)
	return pd.PollAny
}

// decodeOnPool is hQuick's landing of its placement exchange: every
// bucket recv yields is handed to decode exactly once, as a task on the
// PE's work pool dispatched the moment the bucket arrives, and released
// afterwards (decode copies its results out). Worker busy time is credited
// to the current phase's CPU channel.
func decodeOnPool(c *comm.Comm, recv func() (int, []byte, bool), decode func(src int, msg []byte)) {
	dgrp := c.Pool().Group()
	for {
		src, msg, ok := recv()
		if !ok {
			break
		}
		dgrp.Go(func() {
			decode(src, msg)
			c.Release(msg)
		})
	}
	c.AddCPU(dgrp.Wait())
}

// SeamOptions are the Step-3→Step-4 settings the merge-based sorters
// share (MergeSort, PDMS, FKMerge embed them; hQuick uses the output
// setting).
type SeamOptions struct {
	// Spill, if non-nil, runs the bounded-memory landing: received buckets
	// wait encoded, in page files for what the pool's budget has no room
	// for. The deterministic statistics are untouched — they do not
	// depend on the landing, and the spill decision only moves measured
	// gauges.
	Spill *spill.Pool
	// Out receives the PE's sorted fragment. It is required: it is the
	// only way the fragment leaves the sorter.
	Out *Output
}

// Output is where a PE's sorted fragment goes: the sink its Step-4 merge
// writes into or, for hQuick and at p == 1, the sink its sorted array is
// drained into. PDMS's items are its prefixes with their origins; a caller
// that wants the full lines keeps the origins and resolves them afterwards.
type Output struct {
	// Open is called exactly once per PE, before the fragment's first item
	// reaches the sink it returns, with the extent of every run the
	// fragment is made of, indexed like the sink's run argument. The
	// extents are exact, so a caller can place or size the fragment before
	// it exists. An error fails the PE.
	Open func(runs []Extent) (merge.Sink, error)
}

// Extent is one run's share of a PE's fragment.
type Extent struct {
	// N is the run's item count and Chars the characters of its strings
	// (for PDMS, of its prefixes).
	N, Chars int64
	// Stable marks a run whose strings stay valid after the merge — the
	// PE's own bucket and a drained array, which alias the caller's input
	// or the sorter's own arrays — so a sink may keep them. A received
	// run's strings are valid only during the sink call.
	Stable bool
}

// charsOf returns the characters of seq's strings, as an Extent counts them.
func charsOf(seq merge.Sequence) (chars int64) {
	set := strutil.Set{Strings: seq.Strings, Order: seq.Order}
	for i := 0; i < set.Len(); i++ {
		chars += int64(len(set.At(i)))
	}
	return chars
}

// bucketCodec is one algorithm's Step-3 wire format: the exact encoded
// size of every outgoing bucket, the encoder that fills exactly that many
// bytes, and the run format a cursor pulls on the receiving side.
type bucketCodec struct {
	sizes  []int
	enc    func(dst int, buf []byte) []byte
	format wire.RunFormat
	// own is the caller's bucket, read through its slice of Step 1's order,
	// which stays home.
	own *merge.Sequence
}

// runBuckets is the Step-3 codec of a PE whose sorted items are all, in
// all's order, and whose bucket dst is its items [off[dst], off[dst+1]):
// each is sent as one run of the given format, read straight from all —
// its LCP column a direct sub-slice of all's LCP array, whose boundary
// entry the encoder ignores — and the bucket at index own stays home.
func runBuckets(c *comm.Comm, own int, format wire.RunFormat, all merge.Sequence, off []int) bucketCodec {
	set := strutil.Set{Strings: all.Strings, Order: all.Order}
	bucket := func(dst int) (strutil.Set, []int32, []uint64) {
		lo, hi := off[dst], off[dst+1]
		return set.Slice(lo, hi), sub(all.LCPs, lo, hi), sub(all.Sats, lo, hi)
	}
	sizes := sizeBuckets(c, own, func(dst int) int {
		b, lcps, sats := bucket(dst)
		return wire.RunSize(format, b, lcps, sats)
	})
	home, lcps, sats := bucket(own)
	return bucketCodec{
		sizes: sizes, format: format,
		own: &merge.Sequence{Strings: home.Strings, Order: home.Order, LCPs: lcps, Sats: sats},
		enc: func(dst int, buf []byte) []byte {
			b, lcps, sats := bucket(dst)
			return wire.AppendRun(buf, format, b, lcps, sats)
		},
	}
}

// sub is the allocation-free view of a bucket's share of a column, nil for
// an empty bucket or a missing column. The first entry of an LCP column's
// view belongs to a string that stays on this PE, and every encoder of a
// run ignores (or re-derives as zero) its first LCP, so no zeroed copy is
// needed.
func sub[T any](col []T, lo, hi int) []T {
	if lo >= hi || col == nil {
		return nil
	}
	return col[lo:hi]
}

// exchangeMerge is Steps 3 and 4 of every merge-based sorter: exchange the
// buckets over g and multiway-merge the p received runs, LCP-aware if the
// runs carry an LCP column, into opt.Out. Merge work and worker busy time
// are billed to the merge phase, and the accounting phase is left at
// PhaseOther.
func exchangeMerge(c *comm.Comm, g *comm.Group, cd bucketCodec, opt SeamOptions) {
	own := g.Idx()
	recv := exchangeEncoded(c, g, cd.sizes, own, cd.enc, stats.PhaseMerge)
	runs := routeRuns(c, recv, len(cd.sizes), cd.format, opt.Spill)
	runs[own] = encodedRun{home: cd.own, n: cd.own.Len(), chars: int(charsOf(*cd.own))}
	c.AddWork(sinkMerge(c, opt.Spill, runs, cd.format, opt.Out))
	c.SetPhase(stats.PhaseOther)
}
