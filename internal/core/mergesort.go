package core

import (
	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// MSOptions configure Algorithm MS (Section V). The zero value is the
// MS-simple configuration, the same mergesort scheme with no LCP-related
// optimizations; MSOptions{LCP: true} is the configuration the paper
// benchmarks as "MS".
type MSOptions struct {
	// LCP enables every LCP optimization: Step 1 produces the local LCP
	// array, Step 3 sends, per string, only the suffix beyond the LCP with
	// the previous string, and Step 4 merges with the LCP-aware loser tree
	// (and makes the algorithm produce the output LCP array). Without it
	// full strings travel and a plain loser tree merges them.
	LCP bool
	// Sampling selects string- or character-based splitter sampling.
	Sampling partition.Sampling
	// V is the oversampling factor (samples per PE); 0 selects partition's
	// default.
	V int
	// TieBreak partitions by (string, origin) pairs so duplicated strings
	// spread evenly over the PEs instead of piling onto one bucket — the
	// Section VIII extension for duplicate-heavy inputs.
	TieBreak bool
	// RandomSampling draws random instead of regularly spaced samples
	// (Section VIII).
	RandomSampling bool
	// GroupID is the base communicator namespace (the call consumes
	// [GroupID, GroupID+16)).
	GroupID int
	// Seed drives hQuick's randomness during sample sorting.
	Seed uint64
	// SeamOptions configure Steps 3→4 (blocking reference, budget mode,
	// output sink).
	SeamOptions
}

// MergeSort runs distributed string merge sort (Algorithm MS, Figure 1):
//
//  1. sort locally, producing the local LCP array;
//  2. determine p−1 splitters by regular sampling and distributed (or
//     centralized) sample sorting;
//  3. all-to-all exchange of the buckets, optionally LCP-compressed;
//  4. multiway merge of the p received runs, LCP-aware if configured.
//
// Every PE calls collectively with its local strings; PE i's Output
// receives the i-th fragment of the global sorted order.
func MergeSort(c *comm.Comm, ss [][]byte, opt MSOptions) {
	p := c.P()

	// Step 1: local sort with LCP array, spread over the PE's work pool
	// (permutation, LCPs and work total are pool-width-independent; see
	// strsort's parallel front-ends). The sorter leaves the caller's array
	// untouched and returns its order: the PE's sorted strings are read
	// through it from here on, and no sorted copy of them is built.
	c.SetPhase(stats.PhaseLocalSort)
	var order []uint32
	var lcp []int32
	var work, busy int64
	if opt.LCP {
		order, lcp, work, busy = strsort.ParallelSortLCP(c.Pool(), ss, nil)
	} else {
		order, work, busy = strsort.ParallelSort(c.Pool(), ss)
	}
	c.AddWork(work)
	c.AddCPU(busy)
	local := strutil.Set{Strings: ss, Order: order}
	if p == 1 {
		c.SetPhase(stats.PhaseOther)
		drain(opt.Out, merge.Sequence{Strings: ss, Order: order, LCPs: lcp})
		return
	}

	// Step 2: splitter selection.
	popt := partition.Options{
		V:              opt.V,
		Sampling:       opt.Sampling,
		TieBreak:       opt.TieBreak,
		RandomSampling: opt.RandomSampling,
		Seed:           opt.Seed,
		GroupID:        opt.GroupID + 1,
		DistSort:       sampleSorter(opt.Seed, opt.BlockingExchange),
	}
	splitters := partition.SelectSplittersSet(c, local, popt)
	var off []int
	if opt.TieBreak {
		off = partition.BucketsTie(local, c.Rank(), splitters)
	} else {
		off = partition.BucketsSet(local, splitters)
	}

	// Step 3: all-to-all bucket exchange. Every outgoing part is sized
	// first and encoded into exactly that many bytes — its own transport
	// buffer on the split-phase exchange, a region of one arena on the
	// blocking reference — so there are zero growth reallocations. The LCP
	// run of a bucket is passed as a direct sub-slice of the local LCP
	// array — the encoder ignores the boundary entry lcps[lo], which belongs
	// to a string that stays on this PE.
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID+8)
	me := g.Idx()
	sizes := sizeBuckets(c, me, func(dst int) int {
		lo, hi := off[dst], off[dst+1]
		if opt.LCP {
			return wire.SetLCPSize(local.Slice(lo, hi), lcpSub(lcp, lo, hi))
		}
		return wire.SetSize(local.Slice(lo, hi))
	})
	own := &merge.Sequence{Strings: ss, Order: order[off[me]:off[me+1]]}
	cd := bucketCodec{sizes: sizes, format: wire.RunStrings, own: own}
	cd.enc = func(dst int, buf []byte) []byte {
		return wire.AppendSet(buf, local.Slice(off[dst], off[dst+1]))
	}
	if opt.LCP {
		own.LCPs = lcpSub(lcp, off[me], off[me+1])
		cd.format = wire.RunStringsLCP
		cd.enc = func(dst int, buf []byte) []byte {
			lo, hi := off[dst], off[dst+1]
			return wire.AppendSetLCP(buf, local.Slice(lo, hi), lcpSub(lcp, lo, hi))
		}
	}

	// Step 4: multiway merge of the received runs and the own bucket.
	exchangeMerge(c, g, cd, opt.LCP, opt.SeamOptions)
}

// sampleSorter is the distributed sample sorter of Step 2 in MS and PDMS:
// hQuick, billed to the caller's phase. Its fragment is drained as one
// stable run, so the sorted samples are kept as they are.
func sampleSorter(seed uint64, blocking bool) partition.DistSorter {
	return func(c *comm.Comm, samples [][]byte, gid int) (sorted [][]byte) {
		out := &Output{Open: func(runs []Extent) (merge.Sink, error) {
			sorted = make([][]byte, 0, runs[0].N)
			return func(_ int, s []byte, _ int32, _ uint64) error {
				sorted = append(sorted, s)
				return nil
			}, nil
		}}
		HQuick(c, samples, HQOptions{
			GroupID: gid, Seed: seed, SeamOptions: SeamOptions{BlockingExchange: blocking, Out: out},
		})
		return sorted
	}
}

// lcpSub is the allocation-free view of a bucket's LCP run: the boundary
// entry lcp[lo] belongs to a string that stays on this PE, and every
// encoder of a run ignores (or re-derives as zero) its first entry, so no
// zeroed copy is needed.
func lcpSub(lcp []int32, lo, hi int) []int32 {
	if lo >= hi {
		return nil
	}
	return lcp[lo:hi]
}
