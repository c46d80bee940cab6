package core

import (
	"encoding/binary"

	"dss/internal/comm"
	"dss/internal/dupdetect"
	"dss/internal/merge"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// PDMSOptions configure Algorithm PDMS (Section VI). The zero value is the
// configuration the paper benchmarks as "PDMS": prefix doubling, no Golomb
// coding, string-based sampling over the distinguishing prefixes.
type PDMSOptions struct {
	// Eps is the geometric prefix growth factor of Step 1+ε; 0 selects
	// dupdetect's default, 1 (prefix doubling).
	Eps float64
	// Golomb enables Golomb coding of the duplicate detection fingerprints
	// (the PDMS-Golomb variant of the evaluation).
	Golomb bool
	// V is the oversampling factor; 0 selects partition's default.
	V int
	// Sampling selects string- or character-based splitter sampling. The
	// character-based one is weighted by the approximated distinguishing
	// prefix lengths, which balances the communication and merge work that
	// is actually done (Section VI; the skew experiment of Section VII-E).
	Sampling partition.Sampling
	// GroupID is the base communicator namespace (the call consumes
	// [GroupID, GroupID+16)).
	GroupID int
	// Seed drives fingerprinting and hQuick randomness.
	Seed uint64
	// SeamOptions configure Steps 3→4 (see MSOptions). In budget mode Out
	// receives the merged prefix run with its origin satellites in the run
	// file's satellite column — budget-mode callers reconstruct full
	// strings by origin lookup instead of core.Reconstruct (which needs the
	// materialized result).
	SeamOptions
}

// PDMS runs Distributed Prefix-Doubling String Merge Sort (Section VI):
// Algorithm MS with an additional Step 1+ε that approximates each string's
// distinguishing prefix length by distributed duplicate detection over
// geometrically growing prefixes. Only those prefixes are sampled,
// exchanged (LCP-compressed) and merged, so the bottleneck communication
// volume drops to (1+ε)·D̂·log σ + O(n̂ log p + p·d̂·log σ·log p) bits
// (Theorem 5) instead of Θ(N̂) — the decisive saving when D ≪ N.
//
// PDMS does not materialize the sorted full strings: the result holds the
// sorted distinguishing prefixes plus the origin (PE, index) of each, which
// is sufficient for search trees, pattern lookups and suffix sorting. An
// origin indexes the input fragments; Reconstruct fetches the full strings
// when the fragments live in other processes.
func PDMS(c *comm.Comm, ss [][]byte, opt PDMSOptions) Result {
	p := c.P()
	// Step 1: local sort with LCP array, spread over the PE's work pool.
	// Duplicate detection takes the sorted strings as one array, so PDMS
	// gathers them through the order, and its origins with them, in one
	// chunk-parallel pass.
	c.SetPhase(stats.PhaseLocalSort)
	order, lcp, work, busy := strsort.ParallelSortLCP(c.Pool(), ss, nil)
	c.AddWork(work)
	c.AddCPU(busy)
	n, w, rank := len(order), c.Pool().Cores(), c.Rank()
	local := make([][]byte, n)
	sats := make([]uint64, n)
	c.AddCPU(c.Pool().ForEach(w, func(k int) {
		for i := k * n / w; i < (k+1)*n/w; i++ {
			local[i] = ss[order[i]]
			sats[i] = originSat(rank, int(order[i]))
		}
	}))

	// Step 1+ε: approximate distinguishing prefix lengths. The LCP array
	// lets a locally repeated prefix be fingerprinted and sent once.
	dd := dupdetect.ApproxDist(c, local, dupdetect.Options{
		Eps:     opt.Eps,
		Golomb:  opt.Golomb,
		LCP:     lcp,
		Seed:    opt.Seed,
		GroupID: opt.GroupID + 2,
	})
	dist := dd.Dist

	// Materialize the prefix view in the gathered array, which nothing
	// reads in full afterwards: transmitted string i is local[i][:dist[i]],
	// and the prefix LCP array is the full LCP capped by both prefix
	// lengths.
	prefixes := local
	plcp := make([]int32, len(local))
	for i := range local {
		prefixes[i] = local[i][:dist[i]]
		if i > 0 {
			h := lcp[i]
			if dist[i-1] < h {
				h = dist[i-1]
			}
			if dist[i] < h {
				h = dist[i]
			}
			plcp[i] = h
		}
	}

	if p == 1 {
		c.SetPhase(stats.PhaseOther)
		if opt.Spill != nil {
			return Result{Drained: drainSorted(opt.Out, strutil.Set{Strings: prefixes}, plcp, sats), PrefixOnly: true}
		}
		origins := make([]Origin, len(sats))
		for i, u := range sats {
			origins[i] = satOrigin(u)
		}
		return Result{Strings: prefixes, LCPs: plcp, Origins: origins, PrefixOnly: true}
	}

	// Step 2: splitters over the distinguishing prefixes — samples and
	// splitters have length at most d̂, and character-based sampling uses
	// the approximated prefix lengths as weights, balancing the work that
	// is actually done (Theorem 5 analysis).
	splitters := partition.SelectSplitters(c, prefixes, partition.Options{
		V:        opt.V,
		Sampling: opt.Sampling,
		Weights:  dist,
		GroupID:  opt.GroupID + 5,
		DistSort: sampleSorter(opt.Seed, opt.BlockingExchange),
	})
	// Buckets are computed over the prefixes: the transmitted prefixes
	// preserve the order of the underlying strings (distinct strings never
	// tie; see dupdetect), so bucketing prefixes against prefix splitters
	// is globally consistent.
	off := partition.Buckets(prefixes, splitters)

	// Step 3: LCP-compressed all-to-all exchange of the prefixes plus
	// their origins. As in MergeSort, every outgoing part is sized first
	// and encoded into exactly that many bytes, and the per-bucket LCP runs
	// are direct sub-slices of the prefix LCP array (the encoder ignores
	// the boundary entry).
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, allRanks(p), opt.GroupID+8)
	blobSizes := make([]int, p)
	oSizes := make([]int, p)
	me := g.Idx()
	sizes := sizeBuckets(c, me, func(dst int) int {
		lo, hi := off[dst], off[dst+1]
		blobSizes[dst] = wire.StringsLCPSize(prefixes[lo:hi], lcpSub(plcp, lo, hi))
		oSize := wire.UvarintLen(uint64(hi - lo))
		for _, u := range sats[lo:hi] {
			oSize += wire.UvarintLen(u)
		}
		oSizes[dst] = oSize
		return wire.UvarintLen(uint64(blobSizes[dst])) + blobSizes[dst] +
			wire.UvarintLen(uint64(oSize)) + oSize
	})
	enc := func(dst int, buf []byte) []byte {
		lo, hi := off[dst], off[dst+1]
		buf = binary.AppendUvarint(buf, uint64(blobSizes[dst]))
		buf = wire.AppendStringsLCP(buf, prefixes[lo:hi], lcpSub(plcp, lo, hi))
		buf = binary.AppendUvarint(buf, uint64(oSizes[dst]))
		buf = binary.AppendUvarint(buf, uint64(hi-lo))
		for _, u := range sats[lo:hi] {
			buf = binary.AppendUvarint(buf, u)
		}
		return buf
	}
	// Step 4: LCP-aware multiway merge of the prefix runs (the own one is
	// the prefix view); origins ride in budget mode's satellite column.
	lo, hi := off[me], off[me+1]
	out, drained := exchangeMerge(c, g, bucketCodec{
		sizes: sizes, enc: enc, format: wire.RunStringsLCP, origins: true,
		own: &merge.Sequence{Strings: prefixes[lo:hi], LCPs: lcpSub(plcp, lo, hi), Sats: sats[lo:hi]},
	}, true, opt.SeamOptions)
	if opt.Spill != nil {
		return Result{Drained: drained, PrefixOnly: true}
	}
	origins := make([]Origin, len(out.Sats))
	for i, u := range out.Sats {
		origins[i] = satOrigin(u)
	}
	return Result{Strings: out.Strings, LCPs: out.LCPs, Origins: origins, PrefixOnly: true}
}

// Reconstruct materializes the full strings behind a PDMS result: every PE
// queries the origin PEs of its output prefixes and receives the original
// strings (one extra all-to-all in each direction). input must be the same
// array the PE passed to PDMS. The returned array is aligned with
// res.Strings. This models the paper's observation that a PE "can be
// queried for the suffix and associated information" of an output string;
// the query cost is excluded from the sorting volume only if the caller
// resets statistics, which the benchmarks do.
//
// It is for PEs in separate address spaces (stringsort.RunPE), where each
// holds only its own input fragment. A caller that holds every fragment
// resolves an origin by lookup, inputs[o.PE][o.Index], with no communication.
func Reconstruct(c *comm.Comm, res Result, input [][]byte, gid int) [][]byte {
	p := c.P()
	g := comm.NewGroup(c, allRanks(p), gid)
	// Queries: per origin PE, the list of (my position, origin index).
	type q struct{ pos, idx int }
	perPE := make([][]q, p)
	for pos, o := range res.Origins {
		perPE[o.PE] = append(perPE[o.PE], q{pos: pos, idx: int(o.Index)})
	}
	parts := make([][]byte, p)
	for pe := 0; pe < p; pe++ {
		w := wire.NewBuffer(8 + 4*len(perPE[pe]))
		w.Uvarint(uint64(len(perPE[pe])))
		for _, qq := range perPE[pe] {
			w.Uvarint(uint64(qq.idx))
		}
		parts[pe] = w.Bytes()
	}
	queries := g.Alltoallv(parts)
	// Answer with the requested strings. Each answer is sized first and
	// encoded into exactly that many bytes, as Step 3 does with its parts.
	answers := make([][]byte, p)
	var idxs []uint64
	for src := 0; src < p; src++ {
		r := wire.NewReader(queries[src])
		cnt, err := r.Uvarint()
		if err != nil {
			panic("pdms: corrupt reconstruction query")
		}
		idxs = idxs[:0]
		size := wire.UvarintLen(cnt)
		for k := uint64(0); k < cnt; k++ {
			idx, err := r.Uvarint()
			if err != nil || idx >= uint64(len(input)) {
				panic("pdms: reconstruction query out of range")
			}
			idxs = append(idxs, idx)
			size += wire.UvarintLen(uint64(len(input[idx]))) + len(input[idx])
		}
		resp := binary.AppendUvarint(make([]byte, 0, size), cnt)
		for _, idx := range idxs {
			resp = binary.AppendUvarint(resp, uint64(len(input[idx])))
			resp = append(resp, input[idx]...)
		}
		answers[src] = resp
		c.Release(queries[src])
	}
	got := g.Alltoallv(answers)
	out := make([][]byte, len(res.Origins))
	for pe := 0; pe < p; pe++ {
		r := wire.NewReader(got[pe])
		cnt, err := r.Uvarint()
		if err != nil || cnt != uint64(len(perPE[pe])) {
			panic("pdms: corrupt reconstruction answer")
		}
		// Flat-arena copy: all answered strings from this PE share one
		// backing buffer instead of one allocation each.
		arena := make([]byte, 0, r.Remaining())
		for k := 0; k < int(cnt); k++ {
			s, err := r.BytesPrefixed()
			if err != nil {
				panic("pdms: corrupt reconstruction answer")
			}
			off := len(arena)
			arena = append(arena, s...)
			end := len(arena)
			out[perPE[pe][k].pos] = arena[off:end:end]
		}
		c.Release(got[pe])
	}
	return out
}
