package core

import (
	"encoding/binary"
	"fmt"

	"dss/internal/comm"
	"dss/internal/dupdetect"
	"dss/internal/merge"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strsort"
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
	// SeamOptions configure Steps 3→4 (see MSOptions). Out receives the
	// merged prefixes with their origins as satellite words.
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
// PDMS does not materialize the sorted full strings: its Output receives
// the sorted distinguishing prefixes plus the origin (PE, index) of each as
// its satellite word, which is sufficient for search trees, pattern
// lookups and suffix sorting. An origin indexes the input fragments, so a
// caller that wants the full strings turns the origins into them once the
// sort is done: by lookup when every fragment is in its address space, with
// Reconstruct when the fragments live in other processes.
func PDMS(c *comm.Comm, ss [][]byte, opt PDMSOptions) {
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
		drain(opt.Out, merge.Sequence{Strings: prefixes, LCPs: plcp, Sats: sats})
		return
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
		DistSort: sampleSorter(opt.Seed),
	})
	// Buckets are computed over the prefixes: the transmitted prefixes
	// preserve the order of the underlying strings (distinct strings never
	// tie; see dupdetect), so bucketing prefixes against prefix splitters
	// is globally consistent.
	off := partition.Buckets(prefixes, splitters)

	// Steps 3 and 4: LCP-compressed all-to-all exchange of the prefixes,
	// each with its origin in the satellite column of its run — sized and
	// encoded as in MergeSort, the LCP column read from the prefix LCP
	// array — and the LCP-aware multiway merge of the prefix runs (the own
	// one is the prefix view). The origins are the satellite words Out's
	// sink receives.
	c.SetPhase(stats.PhaseExchange)
	g := comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID+8)
	all := merge.Sequence{Strings: prefixes, LCPs: plcp, Sats: sats}
	exchangeMerge(c, g, runBuckets(c, g.Idx(), wire.RunLCP|wire.RunSats, all, off), opt.SeamOptions)
}

// Reconstruct fetches the full strings behind a PDMS fragment from the PEs
// that hold them — the paper's observation that a PE "can be queried for
// the suffix and associated information" of an output string. sats is the
// fragment's satellite column, one origin word per prefix (PE in the high
// 32 bits), and input the array the PE passed to PDMS: one all-to-all
// sends every origin PE the indices it is asked for, one sends back the
// strings, and use receives them aligned with sats, aliasing the answers,
// which are released when it returns. A caller snapshots its statistics
// first. It is for PEs in separate address spaces (stringsort.RunPE); in
// one, an origin resolves by lookup. An origin that names no string or a
// corrupt query or answer fails every PE that sees one with an error once
// both exchanges are done, so no peer is left waiting.
func Reconstruct(c *comm.Comm, sats []uint64, input [][]byte, gid int, use func(lines [][]byte) error) error {
	p := c.P()
	g := comm.NewGroup(c, comm.WorldRanks(p), gid)
	// Queries: a counting pass sizes each origin PE's part exactly — one
	// index per origin, in the column's order, which is the order its
	// answers come back in.
	var err error
	sizes := make([]int, p)
	for _, u := range sats {
		if pe := u >> 32; pe < uint64(p) {
			sizes[pe] += wire.UvarintLen(uint64(uint32(u)))
		} else if err == nil {
			err = fmt.Errorf("pdms: origin names PE %d of %d", pe, p)
		}
	}
	parts := make([][]byte, p)
	for pe := range parts {
		parts[pe] = make([]byte, 0, sizes[pe])
	}
	for _, u := range sats {
		if pe := u >> 32; pe < uint64(p) {
			parts[pe] = binary.AppendUvarint(parts[pe], uint64(uint32(u)))
		}
	}
	queries := g.Alltoallv(parts)
	// A query that fails gets an empty answer, which fails its sender.
	answers := make([][]byte, p)
	for src, q := range queries {
		var qerr error
		if answers[src], qerr = answer(q, input); qerr != nil && err == nil {
			err = fmt.Errorf("pdms: reconstruction query from PE %d: %w", src, qerr)
		}
		c.Release(q)
	}
	got := g.Alltoallv(answers)
	defer c.Release(got...)
	if err != nil {
		return err
	}
	rs := make([]*wire.Reader, p)
	for pe, a := range got {
		rs[pe] = wire.NewReader(a)
	}
	lines := make([][]byte, len(sats))
	for i, u := range sats {
		if lines[i], err = rs[u>>32].BytesPrefixed(); err != nil {
			return fmt.Errorf("pdms: corrupt reconstruction answer from PE %d: %w", u>>32, err)
		}
	}
	return use(lines)
}

// answer encodes the input strings a reconstruction query names, each
// length-prefixed. It is sized first and encoded into exactly that many
// bytes, as Step 3 does with its parts.
func answer(query []byte, input [][]byte) ([]byte, error) {
	size := 0
	for r := wire.NewReader(query); r.Remaining() > 0; {
		idx, err := r.Uvarint()
		if err == nil && idx >= uint64(len(input)) {
			err = fmt.Errorf("index %d past the PE's %d strings", idx, len(input))
		}
		if err != nil {
			return nil, err
		}
		size += wire.UvarintLen(uint64(len(input[idx]))) + len(input[idx])
	}
	resp := make([]byte, 0, size)
	for r := wire.NewReader(query); r.Remaining() > 0; {
		idx, _ := r.Uvarint()
		resp = binary.AppendUvarint(resp, uint64(len(input[idx])))
		resp = append(resp, input[idx]...)
	}
	return resp, nil
}
