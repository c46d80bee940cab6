package core

import (
	"bytes"
	"math/rand"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// HQOptions configure algorithm hQuick.
type HQOptions struct {
	// GroupID is the base communicator namespace; the algorithm consumes
	// gids [GroupID, GroupID+d+2) where d = ⌊log₂ p⌋.
	GroupID int
	// Seed drives the initial random placement and pivot sampling.
	Seed uint64
	// TrackPhases, when set, attributes work to the standard phases
	// (partition for pivot selection, exchange for data movement, local
	// sort at the end). When hQuick runs embedded as the sample sorter of
	// MS/PDMS this stays false so everything is billed to the caller's
	// phase.
	TrackPhases bool
	// SeamOptions name the Output the sorted fragment is drained into:
	// strings, LCPs and origin satellites. hQuick is not an
	// out-of-core algorithm — every string moves O(log p) times and the
	// recursion keeps the working set resident — so unlike the merge
	// families a budget bounds only the output accumulation, not the
	// working set (documented in the README's out-of-core section).
	SeamOptions
}

// HQuick sorts the distributed string array with hypercube quicksort
// adapted to strings (Section IV of the paper, after [Axtmann & Sanders,
// Robust Massively Parallel Sorting]). Only the first 2^⌊log₂ p⌋ PEs hold
// output; ties are broken by unique (origin PE, index) tags so duplicate
// strings cannot unbalance the recursion. Latency is polylogarithmic,
// which makes hQuick the sorter of choice for small inputs such as the
// splitter samples of MS and PDMS — but every string is moved O(log p)
// times, so it is not communication-efficient on large data.
func HQuick(c *comm.Comm, ss [][]byte, opt HQOptions) {
	p := c.P()
	d := 0
	for 1<<(d+1) <= p {
		d++
	}
	q := 1 << d // hypercube size: 2^d ≥ p/2 PEs are used

	setPhase := func(ph stats.Phase) stats.Phase {
		if opt.TrackPhases {
			return c.SetPhase(ph)
		}
		return c.Phase()
	}

	// Initial placement: every string moves to a uniformly random
	// hypercube node, tagged with a unique (PE, index) id for tie breaking.
	// This balances the expected load and makes the pivot-based recursion
	// behave like randomized quicksort.
	setPhase(stats.PhaseExchange)
	rng := rand.New(rand.NewSource(int64(opt.Seed) ^ int64(c.Rank()+1)*0x9e3779b9))
	world := comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID)
	var strings [][]byte
	var uids []uint64
	{
		parts, tags := make([][][]byte, p), make([][]uint64, p)
		for i, s := range ss {
			dst := rng.Intn(q)
			parts[dst] = append(parts[dst], s)
			tags[dst] = append(tags[dst], originSat(c.Rank(), i))
		}
		me := world.Idx()
		sizes := sizeBuckets(c, me, func(dst int) int {
			return wire.RunSize(wire.RunSats, strutil.Set{Strings: parts[dst]}, nil, tags[dst])
		})
		enc := func(dst int, buf []byte) []byte {
			return wire.AppendRun(buf, wire.RunSats, strutil.Set{Strings: parts[dst]}, nil, tags[dst])
		}
		// The placement drain and decode are hQuick's merge-equivalent: in
		// tracked runs their busy and wall time bill to the merge channel so
		// the bench panel's merge columns stay honest. Only measured gauges
		// move — the sends are posted before the exchange switches phases
		// and the received bytes are billed to the posting phase.
		next := c.Phase()
		if opt.TrackPhases {
			next = stats.PhaseMerge
		}
		// Encode each part on the pool (posting it as its encoder
		// finishes) and decode each part as it arrives, into its source's
		// slot — every encoder is done once the exchange is posted — so the
		// concatenation below stays in rank order and the string sequence
		// feeding the pivot recursion is independent of arrival timing. The
		// own part stays home, as it is.
		recv := exchangeEncoded(c, world, sizes, me, enc, next)
		decodeOnPool(c, recv, func(src int, msg []byte) {
			s, _, u, err := wire.DecodeRun(wire.RunSats, msg)
			if err != nil {
				panic("hquick: corrupt redistribution payload")
			}
			parts[src], tags[src] = s, u
		})
		for src := 0; src < p; src++ {
			strings = append(strings, parts[src]...)
			uids = append(uids, tags[src]...)
		}
	}

	if c.Rank() < q {
		// d iterations: split the current subcube by a pivot, low half
		// keeps ≤ pivot, high half keeps > pivot.
		for k := d - 1; k >= 0; k-- {
			base := c.Rank() &^ ((1 << (k + 1)) - 1)
			members := make([]int, 1<<(k+1))
			for i := range members {
				members[i] = base + i
			}
			g := comm.NewGroup(c, members, opt.GroupID+1+(d-1-k))

			setPhase(stats.PhasePartition)
			pivotS, pivotU, ok := selectPivot(c, g, strings, uids, rng)

			setPhase(stats.PhaseExchange)
			partner := c.Rank() ^ (1 << k)
			keepLow := c.Rank()&(1<<k) == 0
			var keepS, sendS [][]byte
			var keepU, sendU []uint64
			for i, s := range strings {
				// An empty subcube has no pivot: nothing moves.
				if low := !ok || lessEqTagged(s, uids[i], pivotS, pivotU); low == keepLow {
					keepS, keepU = append(keepS, s), append(keepU, uids[i])
				} else {
					sendS, sendU = append(sendS, s), append(sendU, uids[i])
				}
			}
			// Distinct from every collective tag (groups use gid<<32|seq
			// with small seq; bit 28 of the low word is never set there).
			tag := opt.GroupID<<32 | 1<<28 | k
			got := c.SendRecv(partner, tag, tagRun(sendS, sendU))
			rs, _, ru, err := wire.DecodeRun(wire.RunSats, got)
			if err != nil {
				panic("hquick: corrupt exchange payload")
			}
			c.Release(got) // DecodeRun copied into its own arena
			strings, uids = append(keepS, rs...), append(keepU, ru...)
		}
	} else {
		strings, uids = nil, nil
	}

	// Final local sort with LCP output, spread over the PE's work pool; the
	// uids follow its order.
	setPhase(stats.PhaseLocalSort)
	order, lcp, work, busy := strsort.ParallelSortLCP(c.Pool(), strings, nil)
	c.AddWork(work)
	c.AddCPU(busy)
	sortedUids := make([]uint64, len(order))
	for i, k := range order {
		sortedUids[i] = uids[k]
	}
	drain(opt.Out, merge.Sequence{Strings: strings, Order: order, LCPs: lcp, Sats: sortedUids})
}

// pivotSamples is the number of random local candidates every PE
// contributes to each pivot reduction.
const pivotSamples = 3

// selectPivot approximates the subcube median: every PE contributes up to
// pivotSamples random local (string, uid) candidates; a binomial reduction
// merges candidate lists, downsampling to pivotSamples evenly spaced
// elements per step (so each reduction message carries at most
// pivotSamples·ℓ̂ characters, matching the ℓ̂·log²p volume term of Theorem
// 1); the group root picks the middle candidate and broadcasts it. Returns
// ok=false when the whole subcube is empty.
func selectPivot(c *comm.Comm, g *comm.Group, strings [][]byte, uids []uint64, rng *rand.Rand) ([]byte, uint64, bool) {
	idxs := make([]int, 0, pivotSamples)
	if len(strings) > 0 {
		for i := 0; i < pivotSamples; i++ {
			idxs = append(idxs, rng.Intn(len(strings)))
		}
		sortTaggedIdx(strings, uids, idxs)
	}
	mine := tagRun(filterTagged(strings, uids, idxs))
	combined := g.ReduceBytes(0, mine, func(lo, hi []byte) []byte {
		ls, _, lu, err1 := wire.DecodeRun(wire.RunSats, lo)
		hs, _, hu, err2 := wire.DecodeRun(wire.RunSats, hi)
		if err1 != nil || err2 != nil {
			panic("hquick: corrupt pivot candidates")
		}
		ms, mu := mergeTagged(ls, lu, hs, hu)
		// Downsample to at most pivotSamples evenly spaced candidates.
		if len(ms) > pivotSamples {
			ds := make([][]byte, 0, pivotSamples)
			du := make([]uint64, 0, pivotSamples)
			for i := 0; i < pivotSamples; i++ {
				j := (2*i + 1) * len(ms) / (2 * pivotSamples)
				ds = append(ds, ms[j])
				du = append(du, mu[j])
			}
			ms, mu = ds, du
		}
		return tagRun(ms, mu)
	})
	var payload []byte
	if g.Idx() == 0 {
		cs, _, cu, err := wire.DecodeRun(wire.RunSats, combined)
		if err != nil {
			panic("hquick: corrupt pivot reduction")
		}
		// The middle candidate, or none from an empty subcube.
		mid, end := len(cs)/2, min(len(cs), len(cs)/2+1)
		payload = tagRun(cs[mid:end], cu[mid:end])
	}
	payload = g.Bcast(0, payload)
	ps, _, pu, err := wire.DecodeRun(wire.RunSats, payload)
	if err != nil {
		panic("hquick: corrupt pivot broadcast")
	}
	if len(ps) == 0 {
		return nil, 0, false
	}
	return ps[0], pu[0], true
}

// lessEqTagged compares (s, uid) ≤ (pivotS, pivotU) lexicographically with
// the uid as tie breaker, making every pivot effectively unique.
func lessEqTagged(s []byte, u uint64, ps []byte, pu uint64) bool {
	switch bytes.Compare(s, ps) {
	case -1:
		return true
	case 1:
		return false
	default:
		return u <= pu
	}
}

// tagRun encodes (string, uid) pairs as hQuick's messages carry them: one
// run with a satellite column.
func tagRun(strings [][]byte, uids []uint64) []byte {
	return wire.EncodeRun(wire.RunSats, strutil.Set{Strings: strings}, nil, uids)
}

// filterTagged gathers the selected (string, uid) pairs.
func filterTagged(strings [][]byte, uids []uint64, idxs []int) ([][]byte, []uint64) {
	ss := make([][]byte, 0, len(idxs))
	us := make([]uint64, 0, len(idxs))
	for _, i := range idxs {
		ss = append(ss, strings[i])
		us = append(us, uids[i])
	}
	return ss, us
}

// sortTaggedIdx sorts the index list by (string, uid).
func sortTaggedIdx(strings [][]byte, uids []uint64, idxs []int) {
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0; j-- {
			a, b := idxs[j-1], idxs[j]
			if lessEqTagged(strings[a], uids[a], strings[b], uids[b]) {
				break
			}
			idxs[j-1], idxs[j] = idxs[j], idxs[j-1]
		}
	}
}

// mergeTagged merges two (string, uid)-sorted candidate lists.
func mergeTagged(as [][]byte, au []uint64, bs [][]byte, bu []uint64) ([][]byte, []uint64) {
	ms := make([][]byte, 0, len(as)+len(bs))
	mu := make([]uint64, 0, len(au)+len(bu))
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		if lessEqTagged(as[i], au[i], bs[j], bu[j]) {
			ms, mu = append(ms, as[i]), append(mu, au[i])
			i++
		} else {
			ms, mu = append(ms, bs[j]), append(mu, bu[j])
			j++
		}
	}
	for ; i < len(as); i++ {
		ms, mu = append(ms, as[i]), append(mu, au[i])
	}
	for ; j < len(bs); j++ {
		ms, mu = append(ms, bs[j]), append(mu, bu[j])
	}
	return ms, mu
}
