// Parallel Step-1 sorting: the pool front-ends ParallelSortLCP and
// ParallelSort are EQUIVALENT to SortLCP and Sort — same permutation, same
// LCP array, same characters-inspected work total — at every pool width.
//
// Why not a splitter-based parallel sample sort (pS5-style)? Classifying
// strings against sampled splitters inspects characters the sequential
// sorter never looks at, so the work counter — the input of the paper's
// α-β model time — would change with the core count and the model
// statistics would stop being comparable across machines. What IS taken
// from that lineage is the cached word beside each string (see the package
// comment): it changes which memory a character is read from, not which
// characters are read, and billing follows the depth advanced, so the
// model stays exact. The decomposition itself follows the sequential
// algorithm's own structure:
//
//   - ParallelSortLCP parallelizes the MSD radix pass. The 257-way
//     character histogram IS the classification step (the one character
//     inspection per string the sequential counting pass bills),
//     chunk-parallel counting plus per-worker prefix-summed offsets make
//     the distribution both parallel and stable, and the bucket recursions
//     — disjoint ranges of the proxy, scratch and LCP arrays — run as pool
//     tasks, bottoming out in the sequential kernel.
//   - ParallelSort runs multikey quicksort's ternary partition sequentially
//     at each node (identical swaps, identical billing) and recurses into
//     the disjoint <, =, > parts as pool tasks.
//
// Equivalence argument (pinned by the golden constants,
// FuzzParallelSortEquivalence and the stringsort determinism suite):
// chunk-major distribution order equals the sequential encounter order, so
// the permutation entering every bucket is identical; each sub-sort runs
// the sequential code on an identical range; and the work total is a sum of
// per-task int64 counters whose addition commutes.
package strsort

import (
	"slices"
	"sync/atomic"
	"time"

	"dss/internal/par"
)

// Parallel decomposition thresholds. Subproblems below parSortMin strings
// are handed to the sequential kernel whole (fork/join overhead would
// dominate); counting/distribution chunks never shrink below parChunkMin
// strings.
const (
	parSortMin  = 4096
	parChunkMin = 1024
)

// parSorter carries the shared state of one sorting run: the pool, the
// task group of the bucket recursion, the strings the proxies index, and
// the order-independent work / busy-time accumulators. busy is the single
// source of truth for CPU time: passes, sequential leaves and partition
// loops each bill their own span, and no timed span encloses a spawn site
// — so the group's own busy meter (which would double-count nested spans)
// is deliberately discarded at Wait.
type parSorter struct {
	pool *par.Pool
	grp  *par.Group
	ss   [][]byte
	work atomic.Int64
	busy atomic.Int64
}

// ParallelSortLCP sorts ss with its LCP array, spreading the work over the
// pool, and returns the order (order[i] indexes the i-th smallest string
// of ss, which is left untouched), the LCP array in that order (lcp reused
// if non-nil), the characters-inspected work total — bit-identical to
// SortLCP's at every pool width — and the summed busy nanoseconds of all
// workers (the CPU-seconds measurement; NOT a model input). This is the
// Step 1 sorter of Algorithms MS and PDMS.
func ParallelSortLCP(pool *par.Pool, ss [][]byte, lcp []int32) ([]uint32, []int32, int64, int64) {
	if lcp == nil {
		lcp = make([]int32, len(ss))
	} else if len(lcp) != len(ss) {
		panic("strsort: lcp length mismatch")
	}
	order, work, busy := sortProxies(pool, ss, lcp)
	return order, lcp, work, busy
}

// ParallelSort is ParallelSortLCP without LCP output (the MS-simple /
// FKmerge path); its work total is bit-identical to Sort's.
func ParallelSort(pool *par.Pool, ss [][]byte) ([]uint32, int64, int64) {
	return sortProxies(pool, ss, nil)
}

// chunks is the number of pieces a pass over n proxies is cut into: the
// pool width, unless that makes them shorter than parChunkMin.
func (ps *parSorter) chunks(n int) int {
	return max(1, min(ps.pool.Cores(), n/parChunkMin))
}

// chunk returns the bounds of the k-th of w pieces of n proxies.
func chunk(k, w, n int) (lo, hi int) { return k * n / w, (k + 1) * n / w }

// pass runs fn(0..w-1) on the pool and bills the workers' busy time.
func (ps *parSorter) pass(w int, fn func(k int)) { ps.busy.Add(ps.pool.ForEach(w, fn)) }

// load is the chunk-parallel form of the kernel's load.
func (ps *parSorter) load(px []proxy, depth int) {
	w := ps.chunks(len(px))
	ps.pass(w, func(k int) {
		lo, hi := chunk(k, w, len(px))
		load(ps.ss, px[lo:hi], depth)
	})
}

// radix is the parallel form of kernel.radix: per level one counting pass
// billed exactly like the sequential one (n characters), a stable
// chunk-parallel distribution producing the sequential permutation, the
// sequential LCP boundary assignment, and the bucket recursions spawned on
// the group, each on its own aligned part of px, tmp and lcp.
func (ps *parSorter) radix(px, tmp []proxy, lcp []int32, depth, base int) {
	n := len(px)
	if n < parSortMin {
		t0 := time.Now()
		k := kernel{ss: ps.ss}
		k.radix(px, tmp, lcp, depth, base)
		ps.work.Add(k.work)
		ps.busy.Add(time.Since(t0).Nanoseconds())
		return
	}

	// Chunk-parallel counting pass over the (depth+1)-st character: worker
	// k histograms its chunk, reloading the windows at depth first when
	// depth has run past them. Billed once for the whole pass, as
	// sequential; and, as there, a level that puts every string into one
	// bucket needs no distribution and continues right here, at the first
	// level that can split.
	w := ps.chunks(n)
	counts := make([][257]int, w)
	var count [257]int
	for {
		ld := depth-base >= keyChars
		if ld {
			base = depth
		}
		d, off := depth, uint(depth-base) // per level, so that the closure copies them
		ps.pass(w, func(k int) {
			lo, hi := chunk(k, w, n)
			if ld {
				load(ps.ss, px[lo:hi], d)
			}
			c := &counts[k]
			*c = [257]int{}
			for i := lo; i < hi; i++ {
				c[px[i].bucket(off)]++
			}
		})
		ps.work.Add(int64(n))
		for k := range counts {
			for b, c := range counts[k] {
				count[b] += c
			}
		}
		b := px[0].bucket(off)
		if count[b] < n {
			break
		}
		if b == 0 {
			fillDepth(lcp[1:], depth)
			return
		}
		count[b] = 0
		depth = ps.skip(px, depth, base)
	}
	d, b0, off := depth, base, uint(depth-base)

	// Per-worker write cursors: worker k's slot in bucket b begins after
	// all earlier chunks' strings of that bucket, so the chunk-major
	// distribution below reproduces the sequential encounter order exactly
	// (stability).
	var end [257]int
	run := 0
	for b := range end {
		for k := range counts {
			c := counts[k][b]
			counts[k][b] = run
			run += c
		}
		end[b] = run
	}

	// Stable out-of-place distribution, then a chunk-parallel copy back.
	// Each tmp index is written by exactly one worker (disjoint cursor
	// ranges); the ForEach barrier orders the scatter before the copy.
	ps.pass(w, func(k int) {
		lo, hi := chunk(k, w, n)
		next := &counts[k]
		for i := lo; i < hi; i++ {
			b := px[i].bucket(off)
			tmp[next[b]] = px[i]
			next[b]++
		}
	})
	ps.pass(w, func(k int) {
		lo, hi := chunk(k, w, n)
		copy(px[lo:hi], tmp[lo:hi])
	})

	// A bucket of parSortMin strings or more is a task of its own; runs of
	// smaller ones, which the sequential kernel sorts, share a task of about
	// parSortMin strings, so that a level with hundreds of small buckets
	// spawns tens of tasks, not hundreds. The batches are consecutive
	// windows of one array of bucket bounds (lo, hi, lo, hi, ...).
	small := 0
	for b := 1; b <= 256; b++ {
		if c := count[b]; c > 1 && c < parSortMin {
			small++
		}
	}
	bounds := make([]int, 0, 2*small)
	first, size := 0, 0
	flush := func() {
		if b := bounds[first:]; len(b) > 0 {
			ps.grp.Go(func() {
				for i := 0; i < len(b); i += 2 {
					lo, hi := b[i], b[i+1]
					ps.radix(px[lo:hi], tmp[lo:hi], lcp[lo:hi], d+1, b0)
				}
			})
		}
		first, size = len(bounds), 0
	}
	buckets(&count, &end, lcp, d, func(lo, hi int) {
		if hi-lo >= parSortMin {
			ps.grp.Go(func() { ps.radix(px[lo:hi], tmp[lo:hi], lcp[lo:hi], d+1, b0) })
			return
		}
		bounds = append(bounds, lo, hi)
		if size += hi - lo; size >= parSortMin {
			flush()
		}
	})
	flush()
}

// skip is the chunk-parallel form of the kernel's skip: commonPrefix with
// every round one pass whose chunks' results are reduced by min.
func (ps *parSorter) skip(px []proxy, depth, base int) int {
	w := ps.chunks(len(px))
	mins := make([]int, w)
	minPass := func(f func(c []proxy) int) int {
		ps.pass(w, func(k int) {
			lo, hi := chunk(k, w, len(px))
			mins[k] = f(px[lo:hi])
		})
		return slices.Min(mins)
	}
	k0 := px[0].key()
	m := base + minPass(func(c []proxy) int { return windowAgree(c, k0) })
	if m == base+keyChars {
		ref := ps.ss[px[0].idx]
		m = probe(m, len(ref), func(lo, hi int) int {
			return minPass(func(c []proxy) int { return agree(ps.ss, c, ref, lo, hi) })
		})
	}
	ps.work.Add(int64(m-depth-1) * int64(len(px)))
	return m
}

// mkq is the parallel form of kernel.mkqsort: the ternary partition at
// each node is the sequential code (identical swaps, identical n-character
// billing); the <, > parts become group tasks and the = part is the
// sequential tail-iteration one character deeper, or, when it is the whole
// node, at the end of the prefix the node shares.
func (ps *parSorter) mkq(px []proxy, depth, base int) {
	for len(px) >= parSortMin {
		t0 := time.Now()
		lt, gt, atEnd := partition(px, uint(depth-base))
		ps.work.Add(int64(len(px)))
		ps.busy.Add(time.Since(t0).Nanoseconds())
		// Closures get copies: the tail-iteration below mutates px, depth
		// and base before the spawned tasks may run.
		low, high, eq, d, b := px[:lt], px[gt+1:], px[lt:gt+1], depth, base
		ps.grp.Go(func() { ps.mkq(low, d, b) })
		ps.grp.Go(func() { ps.mkq(high, d, b) })
		if atEnd {
			return // fully equal strings: nothing left to sort
		}
		m := d + 1
		if len(eq) == len(px) {
			m = ps.skip(eq, d, b)
		}
		px, depth = eq, m
		if depth-base >= keyChars {
			ps.load(px, depth)
			base = depth
		}
	}
	t0 := time.Now()
	k := kernel{ss: ps.ss}
	k.mkqsort(px, depth, base)
	ps.work.Add(k.work)
	ps.busy.Add(time.Since(t0).Nanoseconds())
}
