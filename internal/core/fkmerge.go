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

// FKOptions configure the FKmerge baseline.
type FKOptions struct {
	// GroupID is the base communicator namespace.
	GroupID int
	// SeamOptions configure Steps 3→4 (see MSOptions).
	SeamOptions
}

// FKMerge is the distributed multiway string mergesort of Fischer and
// Kurpicz (Section II-C), the only previously published distributed-memory
// string sorter: local sort, deterministic regular sampling with p−1
// samples per PE, *centralized* sorting of the p(p−1) samples on PE 0,
// full-string all-to-all exchange and a plain (non-LCP) loser tree merge.
// The centralized quadratic sample sort and the uncompressed exchange are
// exactly the bottlenecks the paper's evaluation exposes beyond ~320 cores.
func FKMerge(c *comm.Comm, ss [][]byte, opt FKOptions) {
	p := c.P()

	// Step 1: local sort on the PE's work pool (no LCP output needed:
	// FKmerge never uses LCPs); the sorted strings are read through its
	// order.
	c.SetPhase(stats.PhaseLocalSort)
	order, work, busy := strsort.ParallelSort(c.Pool(), ss)
	c.AddWork(work)
	c.AddCPU(busy)
	local := strutil.Set{Strings: ss, Order: order}
	if p == 1 {
		c.SetPhase(stats.PhaseOther)
		drain(opt.Out, merge.Sequence{Strings: ss, Order: order})
		return
	}

	// Step 2: deterministic sampling, v = p−1 samples per PE, gathered and
	// sorted on PE 0 (the paper notes this needs samples of quadratic
	// size, costing a factor p in the minimal efficient input size).
	splitters := partition.SelectSplittersSet(c, local, partition.Options{
		V:        p - 1,
		Sampling: partition.StringSampling,
		GroupID:  opt.GroupID + 1,
		// DistSort nil → centralized sort on PE 0.
	})
	off := partition.BucketsSet(local, splitters)

	// Step 3: uncompressed all-to-all exchange, every part sized first and
	// encoded on the work pool into exactly that many bytes (see MergeSort
	// Step 3).
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID+8)
	me := g.Idx()
	sizes := sizeBuckets(c, me, func(dst int) int {
		return wire.SetSize(local.Slice(off[dst], off[dst+1]))
	})
	enc := func(dst int, buf []byte) []byte {
		return wire.AppendSet(buf, local.Slice(off[dst], off[dst+1]))
	}

	// Step 4: ordinary loser tree merge; the own bucket stays home.
	exchangeMerge(c, g, bucketCodec{
		sizes: sizes, enc: enc, format: wire.RunStrings,
		own: &merge.Sequence{Strings: ss, Order: order[off[me]:off[me+1]]},
	}, false, opt.SeamOptions)
}
