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
//
// One round, in memory. A detector owns every array of the loop for the
// length of one ApproxDist call and reslices them per round; inside the
// loop only the messages handed to the all-to-all are allocated. The
// sender side is sized by the local string count: the requests {candidate,
// fingerprint} in candidate order, the same requests grouped by destination
// PE fp mod p (each group sorted by fingerprint when the round is Golomb
// coded — an LSD radix sort through one scratch array that skips every
// digit the whole group shares), and the group's bare fingerprints for the
// encoder. The receiver side grows to the largest round seen: one decoded
// list per source and one flat verdict array over their concatenation.
// Golomb lists arrive sorted, so multiplicities are counted by a p-way
// merge; raw 64- and 32-bit lists arrive in request order and are counted
// by sorting a position-tagged copy with the same radix sort. Verdicts come
// back as one bit per request and land in a []bool indexed by candidate.
//
// Hashing is blocked. The first touch of a string's next characters is a
// cache and TLB miss (the strings of one PE are hundreds of bytes apart and
// visited in sorted order, not memory order), and the polynomial's
// multiply chain cannot start before it lands. So the loop first reads one
// byte at each end of the next extension for a block of candidates —
// independent loads whose misses are in flight together — and only then
// runs Extend over lines that are resident. The hash itself is miss-bound,
// not multiply-bound: a bit-identical form absorbing 8 bytes per step
// measured 0 % on the benchmark input, which is why Extend is unchanged.
package dupdetect

import (
	"math"
	"slices"

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

	n := len(ss)
	if n > math.MaxInt32 {
		panic("dupdetect: more than 2^31-1 local strings")
	}
	d := newDetector(c, ss, opt)
	res := Result{Dist: make([]int32, n)}
	candidates := make([]int32, n)
	for i := range candidates {
		candidates[i] = int32(i)
	}
	long := raw64
	if opt.Golomb {
		long = golombCoded
	}

	ell := opt.InitialLen
	for {
		// Global termination check.
		remaining := d.g.AllreduceUint64([]uint64{uint64(len(candidates))}, comm.Sum)[0]
		if remaining == 0 {
			break
		}
		res.Iterations++

		// Uniqueness check, optionally in two fingerprint resolutions:
		// a cheap 32-bit round first, then a full-width round for the
		// candidates whose short fingerprint collided.
		reqs := d.fingerprints(candidates, ell)
		if opt.TwoLevel {
			d.uniqueRound(reqs, short32)
			recheck := reqs[:0]
			for _, r := range reqs {
				if !d.unique[r.cand] {
					recheck = append(recheck, r)
				}
			}
			reqs = recheck
		}
		d.uniqueRound(reqs, long)

		// Resolve candidates: strings shorter than ℓ resolve with their
		// full length after their terminated blocking round (see
		// fingerprints), whatever the verdict; unique fingerprints prove
		// distinguishing prefixes.
		live := candidates[:0]
		for _, ci := range candidates {
			switch {
			case len(ss[ci]) < ell:
				res.Dist[ci] = int32(len(ss[ci]))
				res.ResolvedLength++
			case d.unique[ci]:
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

// wireFormat is how one uniqueness round ships its fingerprints.
type wireFormat int

const (
	raw64       wireFormat = iota // 8 bytes each, request order
	short32                       // upper 32 bits, 4 bytes each (first level of TwoLevel)
	golombCoded                   // sorted and Golomb coded
)

const (
	// hashBlock is how many candidates have their next characters touched
	// before any of them is hashed: enough independent misses to fill the
	// core's line-fill buffers, few enough that the lines are still in L1
	// when Extend reads them.
	hashBlock = 16
	// radixMin is the group size below which eight counting passes cost
	// more than an insertion sort.
	radixMin = 64
)

// detector holds the state of one ApproxDist call: the hash states of the
// local strings and every array the round loop reuses (see the package
// comment for who is sized by what).
type detector struct {
	c      *comm.Comm
	g      *comm.Group
	p      int
	hyper  bool // hypercube-route the all-to-alls
	ss     [][]byte
	hasher fingerprint.Hasher
	states []fingerprint.State
	unique []bool // by candidate; set once, a unique candidate never returns
	touch  byte   // keeps the block touch's loads alive

	// Sender side, len(ss) each.
	reqs    []req    // this round's requests, candidate order
	routed  []req    // the same grouped by destination: routed[offs[d]:offs[d+1]] goes to PE d
	scratch []req    // the radix sort's other half
	fps     []uint64 // one group's fingerprints, for the encoders
	offs    []int
	parts   [][]byte
	bits    []bool // one destination's decoded verdicts

	// Receiver side, grown to the largest round.
	lists   [][]uint64 // decoded fingerprints per source
	voffs   []int      // verdict[voffs[src]:voffs[src+1]] answers lists[src]
	verdict []bool
	tagged  []req   // raw rounds: every received fingerprint with its verdict index
	heap    []int32 // Golomb rounds: sources ordered by their list's head
	heads   []int   // Golomb rounds: next unread position per source
}

func newDetector(c *comm.Comm, ss [][]byte, opt Options) *detector {
	p, n := c.P(), len(ss)
	return &detector{
		c:       c,
		g:       comm.NewGroup(c, allRanks(p), opt.GroupID),
		p:       p,
		hyper:   opt.Hypercube && p&(p-1) == 0,
		ss:      ss,
		hasher:  fingerprint.New(opt.Seed),
		states:  make([]fingerprint.State, n),
		unique:  make([]bool, n),
		reqs:    make([]req, n),
		routed:  make([]req, n),
		scratch: make([]req, n),
		fps:     make([]uint64, n),
		offs:    make([]int, p+1),
		parts:   make([][]byte, p),
		bits:    make([]bool, 0, n),
		lists:   make([][]uint64, p),
		voffs:   make([]int, p+1),
		heap:    make([]int32, 0, p),
		heads:   make([]int, p),
	}
}

// fingerprints extends every candidate's hash state to its length-ℓ prefix
// and returns the round's requests. Only fresh characters are hashed and
// billed. A string shorter than ℓ participates one final time with a
// *terminated* fingerprint — it must keep blocking longer strings that
// have it as a proper prefix (in the paper's model the 0-terminator is a
// real character). Strictly shorter: at exactly ℓ == |s| the prefix is the
// whole string WITHOUT the terminator and must collide with equal-length
// prefixes of longer strings.
func (d *detector) fingerprints(candidates []int32, ell int) []req {
	reqs := d.reqs[:len(candidates)]
	var work int64
	for lo := 0; lo < len(candidates); lo += hashBlock {
		hi := min(lo+hashBlock, len(candidates))
		touch := d.touch
		for _, ci := range candidates[lo:hi] {
			s := d.ss[ci]
			if from, upto := d.states[ci].Pos(), min(len(s), ell); from < upto {
				touch += s[from] + s[upto-1]
			}
		}
		d.touch = touch
		for i, ci := range candidates[lo:hi] {
			s, st := d.ss[ci], d.states[ci]
			upto := min(len(s), ell)
			work += int64(upto - st.Pos())
			st = d.hasher.Extend(st, s, upto)
			d.states[ci] = st
			if len(s) < ell {
				reqs[lo+i] = req{cand: ci, fp: d.hasher.FinalizeTerminated(st)}
			} else {
				reqs[lo+i] = req{cand: ci, fp: d.hasher.Finalize(st)}
			}
		}
	}
	d.c.AddWork(work)
	return reqs
}

// exchange is the round's all-to-all, direct or hypercube routed.
func (d *detector) exchange(parts [][]byte) [][]byte {
	if d.hyper {
		return d.g.AlltoallvHypercube(parts)
	}
	return d.g.Alltoallv(parts)
}

// uniqueRound routes each request's fingerprint to PE (fp mod p), counts
// global multiplicities there, and sets d.unique for every candidate whose
// fingerprint is globally unique. One collective call per PE.
func (d *detector) uniqueRound(reqs []req, format wireFormat) {
	p := uint64(d.p)
	// Short rounds count by the upper 32 bits (well-mixed by the
	// finalizer); routing must use the same value so all copies of a
	// fingerprint meet at the same PE.
	var shift uint
	if format == short32 {
		shift = 32
	}
	// Count per destination, then fill exact-size regions in request order.
	offs := d.offs
	clear(offs)
	for _, r := range reqs {
		offs[(r.fp>>shift)%p+1]++
	}
	for dst := 0; dst < d.p; dst++ {
		offs[dst+1] += offs[dst]
	}
	routed := d.routed[:len(reqs)]
	for _, r := range reqs {
		fp := r.fp >> shift
		dst := fp % p
		routed[offs[dst]] = req{cand: r.cand, fp: fp}
		offs[dst]++
	}
	copy(offs[1:], offs[:d.p]) // the fill advanced each start to its end
	offs[0] = 0

	for dst := range d.parts {
		group := routed[offs[dst]:offs[dst+1]]
		if format == golombCoded {
			sortByFP(group, d.scratch)
		}
		fps := d.fps[:len(group)]
		for j, r := range group {
			fps[j] = r.fp
		}
		switch format {
		case golombCoded:
			d.parts[dst] = golomb.EncodeSorted(fps)
		case short32:
			d.parts[dst] = wire.EncodeUint32sFixed(fps)
		default:
			d.parts[dst] = wire.EncodeUint64sFixed(fps)
		}
	}
	recvd := d.exchange(d.parts)

	for src, msg := range recvd {
		var err error
		switch format {
		case golombCoded:
			d.lists[src], err = golomb.AppendDecodeSorted(d.lists[src][:0], msg)
		case short32:
			d.lists[src], err = wire.AppendDecodeUint32sFixed(d.lists[src][:0], msg)
		default:
			d.lists[src], err = wire.AppendDecodeUint64sFixed(d.lists[src][:0], msg)
		}
		if err != nil {
			panic("dupdetect: corrupt fingerprint message: " + err.Error())
		}
		d.voffs[src+1] = d.voffs[src] + len(d.lists[src])
	}
	d.c.Release(recvd...) // the decoders copied the values out
	total := d.voffs[d.p]
	d.verdict = slices.Grow(d.verdict[:0], total)[:total]
	clear(d.verdict)
	if format == golombCoded {
		d.countMerging()
	} else {
		d.countSorting()
	}

	for src := range d.parts {
		d.parts[src] = wire.EncodeBitset(d.verdict[d.voffs[src]:d.voffs[src+1]])
	}
	verdicts := d.exchange(d.parts)

	for dst, msg := range verdicts {
		group := routed[offs[dst]:offs[dst+1]]
		bits, err := wire.AppendDecodeBitset(d.bits[:0], msg)
		if err != nil || len(bits) != len(group) {
			panic("dupdetect: corrupt verdict message")
		}
		for j, r := range group {
			if bits[j] {
				d.unique[r.cand] = true
			}
		}
		d.bits = bits
	}
	d.c.Release(verdicts...)
}

// countMerging marks the verdict of every fingerprint that occurs once in
// the union of the p decoded lists, each of which is ascending (Golomb
// rounds; golomb.AppendDecodeSorted accepts nothing else). A binary heap
// of sources keyed by their list's head yields the values in ascending
// order; all runs of one value are consumed before its count is judged.
func (d *detector) countMerging() {
	lists, heads := d.lists, d.heads
	less := func(a, b int32) bool { return lists[a][heads[a]] < lists[b][heads[b]] }
	h := d.heap[:0]
	for src := range lists {
		heads[src] = 0
		if len(lists[src]) > 0 {
			h = append(h, int32(src))
			for i := len(h) - 1; i > 0 && less(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		}
	}
	for len(h) > 0 {
		v := lists[h[0]][heads[h[0]]]
		count, first := 0, 0
		for len(h) > 0 && lists[h[0]][heads[h[0]]] == v {
			src := h[0]
			l, j := lists[src], heads[src]
			first = d.voffs[src] + j
			for j < len(l) && l[j] == v {
				j++
				count++
			}
			heads[src] = j
			if j == len(l) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			for i := 0; ; { // sift the changed root down
				m := i
				if c := 2*i + 1; c < len(h) && less(h[c], h[m]) {
					m = c
				}
				if c := 2*i + 2; c < len(h) && less(h[c], h[m]) {
					m = c
				}
				if m == i {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
		if count == 1 {
			d.verdict[first] = true
		}
	}
}

// countSorting marks the verdict of every fingerprint that occurs once
// among the p decoded lists when they arrive in request order (raw 64- and
// 32-bit rounds): tag each value with its verdict index, sort the copy,
// and judge the runs.
func (d *detector) countSorting() {
	total := len(d.verdict)
	if total > math.MaxInt32 {
		panic("dupdetect: more than 2^31-1 fingerprints received in one round")
	}
	d.tagged = slices.Grow(d.tagged[:0], 2*total)[:2*total] // the copy and the sort's other half
	tagged := d.tagged[:total]
	k := 0
	for _, l := range d.lists {
		for _, fp := range l {
			tagged[k] = req{cand: int32(k), fp: fp}
			k++
		}
	}
	sortByFP(tagged, d.tagged[total:])
	for i := 0; i < total; {
		j := i + 1
		for j < total && tagged[j].fp == tagged[i].fp {
			j++
		}
		if j == i+1 {
			d.verdict[tagged[i].cand] = true
		}
		i = j
	}
}

// sortByFP sorts a by fingerprint, stably, using tmp (at least as long) as
// the other half of an LSD radix sort on the eight bytes of fp. One read
// of a fills all eight histograms; a byte every key shares — the high
// bytes of short fingerprints, all eight when every candidate still shares
// its prefix — costs no pass.
func sortByFP(a, tmp []req) {
	n := len(a)
	if n < radixMin {
		for i := 1; i < n; i++ {
			r := a[i]
			j := i
			for ; j > 0 && a[j-1].fp > r.fp; j-- {
				a[j] = a[j-1]
			}
			a[j] = r
		}
		return
	}
	var count [8][256]int32
	for _, r := range a {
		for b := range count {
			count[b][byte(r.fp>>(8*b))]++
		}
	}
	src, dst := a, tmp[:n]
	for b := range count {
		cnt := &count[b]
		if int(cnt[byte(src[0].fp>>(8*b))]) == n {
			continue
		}
		sum := int32(0)
		for i, c := range cnt {
			cnt[i], sum = sum, sum+c
		}
		for _, r := range src {
			digit := byte(r.fp >> (8 * b))
			dst[cnt[digit]] = r
			cnt[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

func allRanks(p int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = i
	}
	return r
}
