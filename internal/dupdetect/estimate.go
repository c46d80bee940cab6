package dupdetect

import (
	"bytes"
	"math/rand"
	"sort"

	"dss/internal/comm"
	"dss/internal/stats"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// EstimateD approximates the average distinguishing prefix length D/n of a
// distributed string set by gossiping a small random sample — the
// Section VIII suggestion for choosing between string-sorting-based and
// more sophisticated suffix sorters: "gossip a small sample of the input
// strings; then, without further communication, their distinguishing
// prefix sizes can be computed locally".
//
// Protocol: every PE contributes a Bernoulli sample of its strings (about
// sampleSize/p each); the samples are all-gathered; every PE computes, for
// each sample string, the maximum LCP with its own local strings
// (excluding the sampled occurrence itself); a max-reduction yields
// DIST(s) = maxLCP+1 (capped at |s|) exactly for each sample string, and
// the average estimates D/n.
//
// The estimate is exact on the sample: sampling error only comes from
// which strings were drawn, which is why Section VIII warns that a small
// sample misses heavy-tailed DIST distributions (dˆ ≫ D/n).
//
// EstimateD is a collective call; accounting goes to stats.PhaseDupDetect.
type EstimateResult struct {
	// AvgDist is the estimated D/n: the mean DIST over the sample.
	AvgDist float64
	// MaxDist is the largest DIST observed in the sample (a lower bound
	// on d̂).
	MaxDist int
	// SampleSize is the number of strings actually sampled globally.
	SampleSize int
}

// EstimateD runs the estimator over the local strings ss (need not be
// sorted). sampleSize is the global target sample size.
func EstimateD(c *comm.Comm, ss [][]byte, sampleSize int, seed uint64, gid int) EstimateResult {
	prevPhase := c.SetPhase(stats.PhaseDupDetect)
	defer c.SetPhase(prevPhase)
	p := c.P()
	g := comm.NewGroup(c, comm.WorldRanks(p), gid)

	// Bernoulli sample: expected sampleSize/p strings per PE.
	rng := rand.New(rand.NewSource(int64(seed) ^ int64(c.Rank()+1)*0x5851f42d4c957f2d))
	_, total := g.ExscanUint64(uint64(len(ss)))
	var prob float64
	if total > 0 {
		prob = float64(sampleSize) / float64(total)
		if prob > 1 {
			prob = 1
		}
	}
	type picked struct {
		idx int
		s   []byte
	}
	var mine []picked
	for i, s := range ss {
		if rng.Float64() < prob {
			mine = append(mine, picked{idx: i, s: s})
		}
	}

	// Gossip the sample with origin tags so the owner can exclude the
	// sampled occurrence itself from the max-LCP computation.
	w := wire.NewBuffer(64)
	w.Uvarint(uint64(len(mine)))
	for _, pk := range mine {
		w.Uvarint(uint64(pk.idx))
		w.BytesPrefixed(pk.s)
	}
	parts := g.Allgatherv(w.Bytes())

	type sample struct {
		pe, idx int
		s       []byte
	}
	var samples []sample
	for pe, part := range parts {
		r := wire.NewReader(part)
		cnt, err := r.Uvarint()
		if err != nil {
			panic("dupdetect: corrupt estimate sample")
		}
		for k := uint64(0); k < cnt; k++ {
			idx, err1 := r.Uvarint()
			s, err2 := r.BytesPrefixed()
			if err1 != nil || err2 != nil {
				panic("dupdetect: corrupt estimate sample")
			}
			cp := make([]byte, len(s))
			copy(cp, s)
			samples = append(samples, sample{pe: pe, idx: int(idx), s: cp})
		}
	}

	// Local max-LCP for each sample string against the local set, via a
	// sorted copy and neighbor inspection around the insertion point.
	sorted := make([]int, len(ss))
	for i := range sorted {
		sorted[i] = i
	}
	sort.Slice(sorted, func(a, b int) bool {
		return bytes.Compare(ss[sorted[a]], ss[sorted[b]]) < 0
	})
	localMax := make([]uint64, len(samples))
	var work int64
	for si, smp := range samples {
		pos := sort.Search(len(sorted), func(k int) bool {
			return bytes.Compare(ss[sorted[k]], smp.s) >= 0
		})
		best := 0
		// Scan outwards from the insertion point; LCP can only shrink as
		// we move away, so a handful of neighbors suffices — but the
		// sampled occurrence itself (and duplicates of it) must be
		// skipped, which may require passing over an equal run.
		for k := pos; k < len(sorted); k++ {
			i := sorted[k]
			if smp.pe == c.Rank() && i == smp.idx {
				continue
			}
			h := strutil.LCP(ss[i], smp.s)
			work += int64(h + 1)
			if h > best {
				best = h
			}
			if h < len(smp.s) || (len(ss[i]) == len(smp.s)) {
				// Once past the equal run the LCP is final.
				break
			}
		}
		for k := pos - 1; k >= 0; k-- {
			i := sorted[k]
			if smp.pe == c.Rank() && i == smp.idx {
				continue
			}
			h := strutil.LCP(ss[i], smp.s)
			work += int64(h + 1)
			if h > best {
				best = h
			}
			break // below the insertion point the first non-self entry decides
		}
		localMax[si] = uint64(best)
	}
	c.AddWork(work)

	// Global max per sample string, then DIST = maxLCP+1 capped at |s|.
	globalMax := g.AllreduceUint64(localMax, comm.Max)
	res := EstimateResult{SampleSize: len(samples)}
	if len(samples) == 0 {
		return res
	}
	var sum float64
	for si, smp := range samples {
		d := int(globalMax[si]) + 1
		if d > len(smp.s) {
			d = len(smp.s)
		}
		sum += float64(d)
		if d > res.MaxDist {
			res.MaxDist = d
		}
	}
	res.AvgDist = sum / float64(len(samples))
	return res
}
