// Package dupdetect implements the communication-efficient distributed
// duplicate detection of [Sanders, Schlag, Müller 2013] applied to
// geometrically growing string prefixes — Step (1+ε) of Algorithm PDMS
// (Section VI-A of the paper, Theorem 6).
//
// For every local string the algorithm computes an upper bound on its
// distinguishing prefix length DIST(s): starting from an initial guess ℓ,
// each iteration fingerprints the length-ℓ prefix of every unresolved
// string, routes the fingerprints to PE (fp mod p), counts global
// multiplicities, and reports back which fingerprints are globally unique.
// A unique fingerprint proves the prefix has no duplicate anywhere, so the
// prefix is distinguishing and the string is resolved with bound ℓ. Errors
// are one-sided: a hash collision can only make a distinct prefix look
// duplicated, which grows the bound (safe), never shrinks it.
//
// Strings shorter than ℓ are resolved with bound |s|: transmitting the
// whole string (whose end acts as a terminator) always suffices to order
// it against any other string, duplicates included.
package dupdetect

import (
	"sort"

	"dss/internal/comm"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/stats"
	"dss/internal/wire"
)

// Options control the prefix doubling loop.
type Options struct {
	// Eps is the geometric growth factor: the prefix guess is multiplied by
	// 1+Eps each iteration. The default 1 gives prefix doubling (the "PD"
	// in PDMS).
	Eps float64
	// InitialLen is the first prefix length guess ℓ₀ (paper:
	// Θ(⌈log p / log σ⌉)). Default 8.
	InitialLen int
	// Golomb enables Golomb coding of the sorted fingerprint messages
	// (algorithm PDMS-Golomb). Without it fingerprints travel as raw
	// 8-byte values.
	Golomb bool
	// TwoLevel enables the two-round fingerprinting of [Sanders, Schlag,
	// Müller 2013]: each iteration first exchanges short 32-bit
	// fingerprints; only the (few) candidates whose short fingerprint
	// collides are re-checked with full 64-bit fingerprints in a second
	// exchange. Cuts fingerprint volume roughly in half when most prefixes
	// are unique. Errors remain one-sided.
	TwoLevel bool
	// Hypercube routes the fingerprint all-to-alls indirectly along a
	// hypercube: latency drops from αp to α·log p per iteration at the
	// price of a log p factor in fingerprint volume (the Theorem 6 latency
	// variant). Requires a power-of-two machine; otherwise direct delivery
	// is used.
	Hypercube bool
	// Seed selects the fingerprint hash function.
	Seed uint64
	// GroupID is the communicator tag namespace to use.
	GroupID int
}

func (o *Options) setDefaults() {
	if o.Eps <= 0 {
		o.Eps = 1
	}
	if o.InitialLen <= 0 {
		o.InitialLen = 8
	}
}

// Result reports the prefix approximation outcome.
type Result struct {
	// Dist[i] is the approximated distinguishing prefix length of ss[i],
	// capped at len(ss[i]). Transmitting Dist[i] characters of ss[i]
	// preserves the global string order (see package comment).
	Dist []int32
	// Iterations is the number of duplicate detection rounds executed.
	Iterations int
	// ResolvedUnique counts strings resolved by a unique fingerprint;
	// ResolvedLength counts strings resolved because ℓ reached their length.
	ResolvedUnique, ResolvedLength int
}

// ApproxDist runs the distributed prefix doubling on the local string set
// ss (one call per PE, collectively). It returns per-string distinguishing
// prefix bounds. Accounting goes to stats.PhaseDupDetect.
func ApproxDist(c *comm.Comm, ss [][]byte, opt Options) Result {
	opt.setDefaults()
	prevPhase := c.SetPhase(stats.PhaseDupDetect)
	defer c.SetPhase(prevPhase)

	p := c.P()
	g := comm.NewGroup(c, allRanks(p), opt.GroupID)
	hasher := fingerprint.New(opt.Seed)

	n := len(ss)
	res := Result{Dist: make([]int32, n)}
	states := make([]fingerprint.State, n)
	candidates := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		candidates = append(candidates, int32(i))
	}

	ell := opt.InitialLen
	for {
		// Global termination check.
		remaining := g.AllreduceUint64([]uint64{uint64(len(candidates))}, comm.Sum)[0]
		if remaining == 0 {
			break
		}
		res.Iterations++

		// Fingerprint the length-ℓ prefixes, extending incrementally.
		// A string shorter than ℓ participates one final time with a
		// *terminated* fingerprint — it must keep blocking longer strings
		// that have it as a proper prefix (in the paper's model the
		// 0-terminator is a real character) — and then resolves with bound
		// |s| regardless of the verdict: transmitting the whole string is
		// always sufficient, duplicates included.
		lengthResolve := make(map[int32]bool)
		allReqs := make([]req, 0, len(candidates))
		for _, ci := range candidates {
			// Strictly shorter than ℓ: the guess has grown past the end of
			// the string, so the "prefix" includes the terminator. At
			// exactly ℓ == |s| the prefix is the whole string WITHOUT the
			// terminator and must collide with equal-length prefixes of
			// longer strings.
			var fp uint64
			if n := len(ss[ci]); n < ell {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], n)
				c.AddWork(int64(n - prevPos))
				fp = hasher.FinalizeTerminated(states[ci])
				lengthResolve[ci] = true
			} else {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], ell)
				c.AddWork(int64(ell - prevPos)) // only fresh characters are hashed
				fp = hasher.Finalize(states[ci])
			}
			allReqs = append(allReqs, req{cand: ci, fp: fp})
		}

		// Uniqueness check, optionally in two fingerprint resolutions:
		// a cheap 32-bit round first, then a full 64-bit round for the
		// candidates whose short fingerprint collided.
		var uniqueCands map[int32]bool
		if opt.TwoLevel {
			shortUnique := uniqueRound(g, p, allReqs, roundOpts{short: true, hyper: opt.Hypercube})
			var recheck []req
			uniqueCands = make(map[int32]bool, len(shortUnique))
			for _, r := range allReqs {
				if shortUnique[r.cand] {
					uniqueCands[r.cand] = true
				} else {
					recheck = append(recheck, r)
				}
			}
			longUnique := uniqueRound(g, p, recheck, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube})
			for cand := range longUnique {
				uniqueCands[cand] = true
			}
		} else {
			uniqueCands = uniqueRound(g, p, allReqs, roundOpts{golomb: opt.Golomb, hyper: opt.Hypercube})
		}

		// Resolve candidates: unique fingerprints prove distinguishing
		// prefixes; strings shorter than ℓ resolve with their full length
		// after their terminated blocking round.
		live := candidates[:0]
		for _, ci := range candidates {
			switch {
			case lengthResolve[ci]:
				res.Dist[ci] = int32(len(ss[ci]))
				res.ResolvedLength++
			case uniqueCands[ci]:
				res.Dist[ci] = int32(ell)
				res.ResolvedUnique++
			default:
				live = append(live, ci)
			}
		}
		candidates = live

		// Grow the guess geometrically.
		next := int(float64(ell) * (1 + opt.Eps))
		if next <= ell {
			next = ell + 1
		}
		ell = next
	}
	return res
}

// req is one candidate's fingerprint submission.
type req struct {
	cand int32
	fp   uint64
}

// roundOpts select the wire format and routing of one uniqueness round.
type roundOpts struct {
	short  bool // 32-bit fingerprints (first level of TwoLevel)
	golomb bool // Golomb-code the (sorted) fingerprints
	hyper  bool // hypercube-route the all-to-alls (power-of-two p only)
}

// uniqueRound routes each request's fingerprint to PE (fp mod p), counts
// global multiplicities there, and returns the set of candidates whose
// fingerprint is globally unique. One collective call per PE.
func uniqueRound(g *comm.Group, p int, reqs []req, ro roundOpts) map[int32]bool {
	// Short rounds count by the upper 32 bits (well-mixed by the
	// finalizer); routing must use the same value so all copies of a
	// fingerprint meet at the same PE.
	route := func(r req) (fp uint64, d int) {
		fp = r.fp
		if ro.short {
			fp >>= 32
		}
		return fp, int(fp % uint64(p))
	}
	// Count per destination first, then fill exact-size regions of one
	// backing array in request order: no growth reallocation.
	offs := make([]int, p+1)
	for _, r := range reqs {
		_, d := route(r)
		offs[d+1]++
	}
	largest := 0
	for d := 0; d < p; d++ {
		largest = max(largest, offs[d+1])
		offs[d+1] += offs[d]
	}
	routed := make([]req, len(reqs))
	perDest := make([][]req, p)
	for d := range perDest {
		perDest[d] = routed[offs[d]:offs[d]:offs[d+1]]
	}
	for _, r := range reqs {
		fp, d := route(r)
		perDest[d] = append(perDest[d], req{cand: r.cand, fp: fp})
	}

	exchange := func(parts [][]byte) [][]byte {
		if ro.hyper && p&(p-1) == 0 {
			return g.AlltoallvHypercube(parts)
		}
		return g.Alltoallv(parts)
	}

	parts := make([][]byte, p)
	scratch := make([]uint64, largest) // the encoders copy out of it
	for d := 0; d < p; d++ {
		if ro.golomb {
			sort.Slice(perDest[d], func(a, b int) bool { return perDest[d][a].fp < perDest[d][b].fp })
		}
		fps := scratch[:len(perDest[d])]
		for j, r := range perDest[d] {
			fps[j] = r.fp
		}
		switch {
		case ro.golomb:
			parts[d] = golomb.EncodeSorted(fps)
		case ro.short:
			parts[d] = wire.EncodeUint32sFixed(fps)
		default:
			parts[d] = wire.EncodeUint64sFixed(fps)
		}
	}
	recvd := exchange(parts)

	counts := make(map[uint64]int)
	decoded := make([][]uint64, p)
	for src := 0; src < p; src++ {
		var fps []uint64
		var err error
		switch {
		case ro.golomb:
			fps, err = golomb.DecodeSorted(recvd[src])
		case ro.short:
			fps, err = wire.DecodeUint32sFixed(recvd[src])
		default:
			fps, err = wire.DecodeUint64sFixed(recvd[src])
		}
		if err != nil {
			panic("dupdetect: corrupt fingerprint message: " + err.Error())
		}
		decoded[src] = fps
		for _, fp := range fps {
			counts[fp]++
		}
	}

	replies := make([][]byte, p)
	for src := 0; src < p; src++ {
		bits := make([]bool, len(decoded[src]))
		for j, fp := range decoded[src] {
			bits[j] = counts[fp] == 1
		}
		replies[src] = wire.EncodeBitset(bits)
	}
	verdicts := exchange(replies)

	unique := make(map[int32]bool)
	for d := 0; d < p; d++ {
		bits, err := wire.DecodeBitset(verdicts[d])
		if err != nil || len(bits) != len(perDest[d]) {
			panic("dupdetect: corrupt verdict message")
		}
		for j, r := range perDest[d] {
			if bits[j] {
				unique[r.cand] = true
			}
		}
	}
	return unique
}

func allRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}
