// Package partition implements Step 2 of the distributed merge sorters:
// regular sampling of the locally sorted string arrays, global splitter
// selection, and bucket boundary computation (Section V-A of the paper).
//
// Two sampling strategies are provided. String-based sampling picks v
// evenly spaced strings per PE and guarantees buckets of at most n/p + n/v
// strings (Theorem 2). Character-based sampling spaces the samples evenly
// by character mass — optionally weighted by approximated distinguishing
// prefix lengths, as PDMS does — and guarantees buckets of at most
// N/p + N/v + (p+v)·ℓ̂ characters (Theorem 3), which balances the actual
// work when string lengths are skewed.
//
// The pv samples are sorted either centrally on PE 0 (the Fischer-Kurpicz
// approach, a scalability bottleneck the paper measures) or by a caller-
// provided distributed sorter (hQuick in Algorithms MS and PDMS).
package partition

import (
	"bytes"
	"math/rand"
	"sort"

	"dss/internal/comm"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// Sampling selects the sampling strategy.
type Sampling int

// Sampling strategies.
const (
	StringSampling Sampling = iota // balance string counts (Theorem 2)
	CharSampling                   // balance character counts (Theorem 3)
)

// String returns the strategy name.
func (s Sampling) String() string {
	if s == CharSampling {
		return "char"
	}
	return "string"
}

// DistSorter sorts the given strings, which are distributed over all PEs,
// and returns the calling PE's fragment of the globally sorted sequence.
// Algorithm MS plugs hQuick in here; gid is a fresh communicator namespace.
type DistSorter func(c *comm.Comm, samples [][]byte, gid int) [][]byte

// Options configure splitter selection.
type Options struct {
	// V is the oversampling factor: samples per PE. The splitter count is
	// always P-1. 0 selects v = max(2p−1, 15) (see setDefaults).
	V int
	// Sampling selects string- or character-based sampling.
	Sampling Sampling
	// Weights optionally reweights character-based sampling: Weights[i] is
	// the character mass of the i-th local string (PDMS passes the
	// approximated distinguishing prefix lengths). nil means |s|.
	Weights []int32
	// DistSort, if non-nil, sorts the sample distributedly; otherwise the
	// samples are gathered and sorted on PE 0 (FKmerge-style).
	DistSort DistSorter
	// TieBreak augments samples (and later bucket comparisons, via
	// BucketsTie) with unique (PE, index) tags, splitting runs of equal
	// strings evenly across buckets — the Section VIII extension for
	// duplicate-heavy inputs. The returned splitters are tie keys (see
	// TieKey) and must be used with BucketsTie, not Buckets.
	TieBreak bool
	// RandomSampling draws the v samples uniformly at random instead of by
	// regular spacing (the Section VIII variant: needs fewer samples in
	// expectation, and expected splitter length drops from ℓ̂ to the mean).
	RandomSampling bool
	// Seed drives RandomSampling.
	Seed uint64
	// GroupID is the communicator namespace for the selection collectives.
	GroupID int
}

// setDefaults fills in the oversampling factor. Theory (Theorems 2–4)
// wants v = Θ(p). Choosing v ≡ −1 (mod p) aligns the local sample quantiles
// j/(v+1) with the bucket boundaries i/p, which brings the bucket bound of
// Theorem 2 from 1+p/v down to ~1.0 on evenly distributed inputs.
func (o *Options) setDefaults(p int) {
	if o.V <= 0 {
		o.V = max(2*p-1, 15)
	}
}

// SelectSplitters computes P-1 global splitters over the locally sorted
// string array ss (one collective call per PE). Every PE returns the same
// splitter array, sorted ascending. Accounting goes to stats.PhasePartition.
func SelectSplitters(c *comm.Comm, ss [][]byte, opt Options) [][]byte {
	return SelectSplittersSet(c, strutil.Set{Strings: ss}, opt)
}

// SelectSplittersSet is SelectSplitters over a sorted set read through its
// order (Step 1's permutation of the caller's array). Local indices — of
// Options.Weights and of the tie-break tags — are positions in set order.
func SelectSplittersSet(c *comm.Comm, set strutil.Set, opt Options) [][]byte {
	p := c.P()
	opt.setDefaults(p)
	prev := c.SetPhase(stats.PhasePartition)
	defer c.SetPhase(prev)

	if p == 1 {
		return nil
	}
	// Decorrelate the per-PE random sampling streams.
	opt.Seed ^= uint64(c.Rank()+1) * 0x2545f4914f6cdd1d
	sample := set.At
	if opt.TieBreak {
		rank := c.Rank()
		sample = func(i int) []byte { return TieKey(set.At(i), tieTag(rank, i)) }
	}
	samples := drawSamples(set, sample, opt)

	g := comm.NewGroup(c, allRanks(p), opt.GroupID)
	var splitters [][]byte
	if opt.DistSort == nil {
		splitters = centralSelect(g, samples, p, c)
	} else {
		splitters = distributedSelect(c, g, samples, p, opt)
	}
	return splitters
}

// drawSamples picks the local samples per the configured strategy;
// sample(i) is the representative of the i-th string (the string itself,
// or its tie key).
func drawSamples(set strutil.Set, sample func(i int) []byte, opt Options) [][]byte {
	v := opt.V
	n := set.Len()
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, v)
	if opt.RandomSampling {
		// Uniform random sampling (with replacement); weights ignored —
		// the random variant of Section VIII balances in expectation.
		rng := rand.New(rand.NewSource(int64(opt.Seed)))
		for j := 0; j < v; j++ {
			out = append(out, sample(rng.Intn(n)))
		}
		return out
	}
	if opt.Sampling == CharSampling {
		weight := func(i int) int64 {
			if opt.Weights != nil {
				return int64(opt.Weights[i])
			}
			return int64(len(set.At(i)))
		}
		var total int64
		for i := 0; i < n; i++ {
			total += weight(i)
		}
		// Degenerate all-empty strings fall through to string sampling.
		if total > 0 {
			// ω' = total/(v+1); pick the string at or following each rank j·ω'.
			var cum int64
			j := 1
			for i := 0; i < n; i++ {
				cum += weight(i)
				for j <= v && cum > total*int64(j)/int64(v+1) {
					out = append(out, sample(i))
					j++
				}
			}
			for ; j <= v; j++ { // rounding leftovers: repeat the last string
				out = append(out, sample(n-1))
			}
			return out
		}
	}
	// ω = |S|/(v+1); samples at ranks ω·j for j = 1..v.
	for j := 1; j <= v; j++ {
		out = append(out, sample(min(j*n/(v+1), n-1)))
	}
	return out
}

// centralSelect gathers all samples on PE 0, sorts them sequentially,
// selects P-1 equidistant splitters and broadcasts them.
func centralSelect(g *comm.Group, samples [][]byte, p int, c *comm.Comm) [][]byte {
	parts := g.Gatherv(0, wire.EncodeStrings(samples))
	var packed []byte
	if g.Idx() == 0 {
		var all [][]byte
		for _, part := range parts {
			ss, err := wire.DecodeStrings(part)
			if err != nil {
				panic("partition: corrupt sample message")
			}
			all = append(all, ss...)
		}
		work := strsort.Sort(all, nil)
		c.AddWork(work)
		packed = wire.EncodeStrings(pickEquidistant(all, p))
	}
	packed = g.Bcast(0, packed)
	splitters, err := wire.DecodeStrings(packed)
	if err != nil {
		panic("partition: corrupt splitter broadcast")
	}
	return splitters
}

// pickEquidistant picks p-1 equidistant splitters from the sorted sample V:
// fi = V[⌈i·|V|/p⌉ - 1] (the paper's V[v·i − 1] for |V| = p·v).
func pickEquidistant(sorted [][]byte, p int) [][]byte {
	out := make([][]byte, 0, p-1)
	if len(sorted) == 0 {
		for i := 1; i < p; i++ {
			out = append(out, []byte{})
		}
		return out
	}
	for i := 1; i < p; i++ {
		idx := i*len(sorted)/p - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, sorted[idx])
	}
	return out
}

// distributedSelect sorts the sample with the caller-provided distributed
// sorter, then extracts the strings at the global splitter ranks and
// all-gathers them.
func distributedSelect(c *comm.Comm, g *comm.Group, samples [][]byte, p int, opt Options) [][]byte {
	frag := opt.DistSort(c, samples, opt.GroupID+1)
	// Global rank of my fragment start.
	prefix, total := g.ExscanUint64(uint64(len(frag)))
	if total == 0 {
		out := make([][]byte, p-1)
		for i := range out {
			out[i] = []byte{}
		}
		return out
	}
	// Contribute the splitters that fall into my fragment.
	contrib := wire.NewBuffer(64)
	type pick struct {
		i int
		s []byte
	}
	var picks []pick
	for i := 1; i < p; i++ {
		rank := uint64(i) * total / uint64(p)
		var idx uint64
		if rank > 0 {
			idx = rank - 1
		}
		if idx >= prefix && idx < prefix+uint64(len(frag)) {
			picks = append(picks, pick{i: i, s: frag[idx-prefix]})
		}
	}
	contrib.Uvarint(uint64(len(picks)))
	for _, pk := range picks {
		contrib.Uvarint(uint64(pk.i))
		contrib.BytesPrefixed(pk.s)
	}
	parts := g.Allgatherv(contrib.Bytes())
	splitters := make([][]byte, p-1)
	for _, part := range parts {
		r := wire.NewReader(part)
		cnt, err := r.Uvarint()
		if err != nil {
			panic("partition: corrupt splitter contribution")
		}
		for k := uint64(0); k < cnt; k++ {
			i64, err1 := r.Uvarint()
			s, err2 := r.BytesPrefixed()
			if err1 != nil || err2 != nil || i64 < 1 || i64 > uint64(p-1) {
				panic("partition: corrupt splitter contribution")
			}
			cp := make([]byte, len(s))
			copy(cp, s)
			splitters[i64-1] = cp
		}
	}
	for i, s := range splitters {
		if s == nil {
			splitters[i] = []byte{}
		}
	}
	return splitters
}

// Buckets computes the bucket boundaries of the locally sorted array ss for
// the given splitters: bucket i receives the strings s with
// f_i < s ≤ f_{i+1} (f_0 = −∞, f_p = +∞). It returns p+1 offsets with
// off[0] = 0 and off[p] = len(ss); bucket i is ss[off[i]:off[i+1]].
// Binary search costs O(p·log n̂·ℓ̂) like in the paper's analysis.
func Buckets(ss [][]byte, splitters [][]byte) []int {
	return BucketsSet(strutil.Set{Strings: ss}, splitters)
}

// BucketsSet is Buckets over a sorted set read through its order; the
// offsets are positions in set order.
func BucketsSet(set strutil.Set, splitters [][]byte) []int {
	return bucketOffsets(set.Len(), splitters, func(k int, f []byte) bool {
		return bytes.Compare(set.At(k), f) > 0
	})
}

// bucketOffsets finds, for every splitter f, the first of n sorted
// positions k with above(k, f) — the strings equal to a splitter stay in
// the lower bucket: f_i < s ≤ f_{i+1} —, and checks that the offsets are
// monotone, which sorted splitters guarantee.
func bucketOffsets(n int, splitters [][]byte, above func(k int, f []byte) bool) []int {
	p := len(splitters) + 1
	off := make([]int, p+1)
	off[p] = n
	for i := 1; i < p; i++ {
		f := splitters[i-1]
		off[i] = sort.Search(n, func(k int) bool { return above(k, f) })
	}
	for i := 1; i <= p; i++ {
		if off[i] < off[i-1] {
			panic("partition: non-monotone bucket offsets (unsorted splitters?)")
		}
	}
	return off
}

func allRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}
