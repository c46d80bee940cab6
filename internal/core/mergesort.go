package core

import (
	"encoding/binary"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/par"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/wire"
)

// MSOptions configure Algorithm MS (Section V). The zero value is the
// MS-simple configuration; DefaultMS() enables all LCP optimizations.
type MSOptions struct {
	// LCPCompression enables the Step 3 exchange format that sends, per
	// string, only the suffix beyond the LCP with the previous string.
	LCPCompression bool
	// LCPMerge selects the LCP-aware loser tree for Step 4 (and makes the
	// algorithm produce the output LCP array). Without it a plain loser
	// tree is used and no LCP data is communicated.
	LCPMerge bool
	// Sampling selects string- or character-based splitter sampling.
	Sampling partition.Sampling
	// V is the oversampling factor (samples per PE); default 2p−1 (v = Θ(p),
	// aligned with the bucket quantiles).
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
	// SeamOptions configure Steps 3→4 (budget mode, parallel merge gate).
	SeamOptions
}

// DefaultMS returns the full Algorithm MS configuration: LCP compression,
// LCP-aware merging, string-based sampling (the configuration the paper
// benchmarks as "MS"), distributed sample sorting with hQuick.
func DefaultMS() MSOptions {
	return MSOptions{LCPCompression: true, LCPMerge: true}
}

// MSSimple returns the MS-simple configuration: the same mergesort scheme
// with no LCP-related optimizations at all.
func MSSimple() MSOptions {
	return MSOptions{}
}

// MergeSort runs distributed string merge sort (Algorithm MS, Figure 1):
//
//  1. sort locally, producing the local LCP array;
//  2. determine p−1 splitters by regular sampling and distributed (or
//     centralized) sample sorting;
//  3. all-to-all exchange of the buckets, optionally LCP-compressed;
//  4. multiway merge of the p received runs, LCP-aware if configured.
//
// Every PE calls collectively with its local strings; PE i's result holds
// the i-th fragment of the global sorted order.
func MergeSort(c *comm.Comm, ss [][]byte, opt MSOptions) Result {
	p := c.P()
	if opt.V <= 0 {
		// Theory (Theorems 2–4) wants v = Θ(p). Choosing v ≡ −1 (mod p)
		// aligns the local sample quantiles j/(v+1) with the bucket
		// boundaries i/p, which brings the bucket bound of Theorem 2 from
		// 1+p/v down to ~1.0 on evenly distributed inputs.
		opt.V = 2*p - 1
		if opt.V < 15 {
			opt.V = 15
		}
	}

	// Step 1: local sort with LCP array, spread over the PE's work pool
	// (permutation, LCPs and work total are pool-width-independent; see
	// strsort's parallel front-ends). The sorter leaves the caller's array
	// untouched and gathers the sorted spine into a fresh one.
	c.SetPhase(stats.PhaseLocalSort)
	var local [][]byte
	var lcp []int32
	var work, busy int64
	if opt.LCPMerge || opt.LCPCompression {
		local, _, lcp, work, busy = strsort.ParallelSortLCP(c.Pool(), ss, nil, nil)
	} else {
		local, _, work, busy = strsort.ParallelSort(c.Pool(), ss, nil)
	}
	c.AddWork(work)
	c.AddCPU(busy)
	if p == 1 {
		c.SetPhase(stats.PhaseOther)
		if opt.Spill != nil {
			return Result{Drained: drainSorted(opt.Out, local, lcp, nil)}
		}
		return Result{Strings: local, LCPs: lcp}
	}

	// Step 2: splitter selection.
	popt := partition.Options{
		V:              opt.V,
		Sampling:       opt.Sampling,
		TieBreak:       opt.TieBreak,
		RandomSampling: opt.RandomSampling,
		Seed:           opt.Seed,
		GroupID:        opt.GroupID + 1,
		DistSort: func(cc *comm.Comm, samples [][]byte, gid int) [][]byte {
			return HQuick(cc, samples, HQOptions{
				GroupID: gid, Seed: opt.Seed, BlockingExchange: opt.BlockingExchange,
			}).Strings
		},
	}
	splitters := partition.SelectSplitters(c, local, popt)
	var off []int
	if opt.TieBreak {
		off = partition.BucketsTie(local, c.Rank(), splitters)
	} else {
		off = partition.Buckets(local, splitters)
	}

	// Step 3: all-to-all bucket exchange. Every outgoing part is sized
	// first and encoded into exactly that many bytes — its own transport
	// buffer on the split-phase exchange, a region of one arena on the
	// blocking reference — so there are zero growth reallocations. The LCP run of a
	// bucket is passed as a direct sub-slice of the local LCP array — the
	// encoders ignore the boundary entry lcps[lo], which belongs to a
	// string that stays on this PE.
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, allRanks(p), opt.GroupID+8)
	var wsizes [][2]int // per-dst (blob, lblob) sizes of the LCPMerge format
	if opt.LCPMerge && !opt.LCPCompression {
		wsizes = make([][2]int, p)
	}
	sizes, sbusy := par.MapOrdered(c.Pool(), p, func(dst int) int {
		lo, hi := off[dst], off[dst+1]
		switch {
		case opt.LCPCompression:
			return wire.StringsLCPSize(local[lo:hi], lcpSub(lcp, lo, hi))
		case opt.LCPMerge:
			blob := wire.StringsSize(local[lo:hi])
			lblob := wire.Int32sRunSize(lcpSub(lcp, lo, hi))
			wsizes[dst] = [2]int{blob, lblob}
			return wire.UvarintLen(uint64(blob)) + blob +
				wire.UvarintLen(uint64(lblob)) + lblob
		default:
			return wire.StringsSize(local[lo:hi])
		}
	})
	c.AddCPU(sbusy)
	enc := func(dst int, buf []byte) []byte {
		lo, hi := off[dst], off[dst+1]
		switch {
		case opt.LCPCompression:
			return wire.AppendStringsLCP(buf, local[lo:hi], lcpSub(lcp, lo, hi))
		case opt.LCPMerge:
			return appendStringsWithLCPs(buf, local[lo:hi], lcpSub(lcp, lo, hi), wsizes[dst])
		default:
			return wire.AppendStrings(buf, local[lo:hi])
		}
	}
	cd := bucketCodec{sizes: sizes, enc: enc}
	switch {
	case opt.LCPCompression:
		cd.format = wire.RunStringsLCP
		cd.decode = func(msg []byte) (merge.Sequence, error) {
			rs, rl, err := wire.DecodeStringsLCP(msg)
			return merge.Sequence{Strings: rs, LCPs: rl}, err
		}
	case opt.LCPMerge:
		if opt.Spill != nil {
			// Full strings plus a trailing LCP column has no incremental
			// reader (and no public configuration produces it).
			panic("mergesort: a memory budget needs an incrementally decodable wire format")
		}
		cd.decode = func(msg []byte) (merge.Sequence, error) {
			rs, rl, err := decodeStringsWithLCPs(msg)
			return merge.Sequence{Strings: rs, LCPs: rl}, err
		}
	default:
		cd.format = wire.RunStrings
		cd.decode = func(msg []byte) (merge.Sequence, error) {
			rs, err := wire.DecodeStrings(msg)
			return merge.Sequence{Strings: rs}, err
		}
	}

	// Step 4: multiway merge of the received runs.
	out, drained := exchangeMerge(c, g, cd, opt.LCPMerge, opt.SeamOptions)
	return Result{Strings: out.Strings, LCPs: out.LCPs, Drained: drained}
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

// appendStringsWithLCPs appends the no-compression, LCP-merging exchange
// format: full strings plus the raw LCP array (the LCP values still enable
// the cheaper merge even though the strings travel uncompressed). The
// first LCP entry is transmitted as zero — it is the boundary with a
// string that stays on the sender. sizes carries the (blob, lblob) byte
// sizes the caller already computed for the arena, so the bucket is not
// traversed a second time.
func appendStringsWithLCPs(dst []byte, ss [][]byte, lcps []int32, sizes [2]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(sizes[0]))
	dst = wire.AppendStrings(dst, ss)
	dst = binary.AppendUvarint(dst, uint64(sizes[1]))
	dst = wire.AppendInt32sRun(dst, lcps)
	return dst
}

func decodeStringsWithLCPs(msg []byte) ([][]byte, []int32, error) {
	r := wire.NewReader(msg)
	blob, err := r.BytesPrefixed()
	if err != nil {
		return nil, nil, err
	}
	lblob, err := r.BytesPrefixed()
	if err != nil {
		return nil, nil, err
	}
	ss, err := wire.DecodeStrings(blob)
	if err != nil {
		return nil, nil, err
	}
	lcps, err := wire.DecodeInt32s(lblob)
	if err != nil {
		return nil, nil, err
	}
	if len(lcps) != len(ss) {
		return nil, nil, wire.ErrCorrupt
	}
	return ss, lcps, nil
}
