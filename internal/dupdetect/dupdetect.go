// Package dupdetect implements the communication-efficient distributed
// duplicate detection of [Sanders, Schlag, Müller 2013] applied to
// geometrically growing string prefixes — Step (1+ε) of Algorithm PDMS
// (Section VI-A of the paper, Theorem 6).
//
// For every local string the algorithm computes an upper bound on its
// distinguishing prefix length DIST(s): starting from an initial guess ℓ,
// each iteration fingerprints the length-ℓ prefix of every unresolved
// string, maps the fingerprint into the round's hash range, routes it to
// the PE that owns that part of the range, counts global multiplicities,
// and reports back which values are globally unique. A unique value proves
// the prefix has no duplicate anywhere, so the prefix is distinguishing and
// the string is resolved with bound ℓ. Errors are one-sided: a hash
// collision can only make a distinct prefix look duplicated, which grows
// the bound (safe), never shrinks it.
//
// Strings shorter than ℓ are resolved with bound |s|: transmitting the
// whole string (whose end acts as a terminator) always suffices to order
// it against any other string, duplicates included.
//
// Two rules keep the volume at what the scheme promises.
//
// The hash range follows the candidate count. A round with r unresolved
// strings machine-wide (the termination allreduce) hashes into
// [0, R), R = r·2^fpBits: v = ⌊fp·R/2^64⌋. PE d owns
// [d·⌈R/p⌉, (d+1)·⌈R/p⌉) and is sent v minus its base, so a sorted list of
// about r/p² values spread over R/p Golomb-codes to fpBits + log₂p + 1.5
// bits per value, and without Golomb coding a value takes the fewest whole
// bytes that hold ⌈R/p⌉ − 1. Equal prefixes still get equal values, so the
// only new event is two different prefixes sharing one — for a given
// string with probability below 2^−fpBits per round — and that is the
// one-sided error above: the string looks duplicated, stays a candidate
// and is resolved one round later.
//
// Local repeats are sent once. With Options.LCP (Step 1's LCP array of the
// sorted local strings) a candidate i with LCP[i] ≥ ℓ shares its length-ℓ
// prefix with candidate i−1, so it cannot be unique: it is neither hashed
// nor sent and stays a candidate. (i−1 is a candidate too: in every
// earlier round the two shared the shorter prefix and neither was shorter
// than it.) The first string of such a run — LCP[i] < ℓ ≤ LCP[i+1] — is
// sent, so the prefix keeps blocking equal prefixes on other PEs, and its
// verdict is forced to "not unique", which is what the copies it stands
// for would have made it. Every other verdict is the one the full exchange
// gives: a value counted once without the skipped copies but more often
// with them would have to be the run's head. So bounds, rounds and
// resolution counts are those of the run without LCP, at any hash range. A
// skipped string's hash state catches up through Extend in the round that
// first sends it, so each string is still billed its resolved length once.
//
// One round, in memory. A detector owns every array of the loop for the
// length of one ApproxDist call and reslices them per round; the loop
// itself allocates nothing — the outgoing messages of an exchange are
// packed into one buffer the all-to-all copies from. The sender side is
// sized by the local string count: the requests {candidate, value} in
// candidate order, the same requests grouped by destination PE (each group
// sorted by value — an LSD radix sort through one scratch array that skips
// every digit the whole group shares, which the bytes above the range
// always are), and the group's bare values for the encoder. The receiver
// side grows to the largest round seen: one decoded list per source and
// one flat verdict array over their concatenation. Every list arrives
// sorted, Golomb coded or fixed-width alike (a fixed-width message has the
// same size in any order), so multiplicities are counted by a p-way merge.
// Verdicts come back as one bit per request and land in a []bool indexed
// by candidate.
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
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
	// Golomb enables Golomb coding of the sorted fingerprint messages
	// (algorithm PDMS-Golomb). Without it the values travel in the fewest
	// whole bytes that hold the round's range.
	Golomb bool
	// LCP is the LCP array of ss when ss is sorted (LCP[0] = 0, LCP[i] the
	// common prefix length of ss[i-1] and ss[i]): locally repeated
	// prefixes are then sent once per round (see the package comment).
	// nil means the order of ss is unknown and every candidate is sent.
	LCP []int32
	// Seed selects the fingerprint hash function.
	Seed uint64
	// GroupID is the communicator tag namespace to use.
	GroupID int

	// initialLen, when positive, replaces the first prefix length guess
	// ℓ₀ = 8 (paper: Θ(⌈log p / log σ⌉)); tests vary it.
	initialLen int
	// fixedRange, when nonzero, replaces every round's hash range (tests:
	// a tiny range forces collisions, MaxUint64 is the full-width run).
	fixedRange uint64
}

func (o *Options) setDefaults() {
	if o.Eps <= 0 {
		o.Eps = 1
	}
	if o.initialLen <= 0 {
		o.initialLen = 8
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
	if opt.LCP != nil && len(opt.LCP) != n {
		panic("dupdetect: LCP array and string set differ in length")
	}
	d := newDetector(c, ss, opt)
	res := Result{Dist: make([]int32, n)}
	candidates := make([]int32, n)
	for i := range candidates {
		candidates[i] = int32(i)
	}

	d.ell = opt.initialLen
	for {
		// Global termination check; the count also sizes the hash range.
		remaining := d.g.AllreduceUint64([]uint64{uint64(len(candidates))}, comm.Sum)[0]
		if remaining == 0 {
			break
		}
		res.Iterations++
		d.round, d.remaining = res.Iterations, remaining
		d.hashRange = remaining << fpBits
		if remaining > math.MaxUint64>>fpBits {
			d.hashRange = math.MaxUint64
		}
		if opt.fixedRange != 0 {
			d.hashRange = opt.fixedRange
		}
		d.bucket = (d.hashRange-1)/uint64(d.p) + 1

		d.uniqueRound(d.fingerprints(candidates))

		// Resolve candidates: strings shorter than ℓ resolve with their
		// full length after their terminated blocking round (see
		// fingerprints), whatever the verdict; unique values prove
		// distinguishing prefixes.
		live := candidates[:0]
		for _, ci := range candidates {
			switch {
			case len(ss[ci]) < d.ell:
				res.Dist[ci] = int32(len(ss[ci]))
			case d.unique[ci]:
				res.Dist[ci] = int32(d.ell)
			default:
				live = append(live, ci)
			}
		}
		candidates = live

		// Grow the guess geometrically.
		next := int(float64(d.ell) * (1 + opt.Eps))
		if next <= d.ell {
			next = d.ell + 1
		}
		d.ell = next
	}
	return res
}

// req is one candidate's submission: its fingerprint mapped into the
// round's hash range, then (routed) relative to the destination's base.
type req struct {
	cand int32
	fp   uint64
}

const (
	// fpBits sets the hash range of a round to 2^fpBits values per
	// unresolved string: a string with a globally unique prefix is held
	// back one round with probability below 2^-fpBits, and a Golomb-coded
	// value costs about fpBits + log₂p + 1.5 bits.
	fpBits = 12
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
	golomb bool // Golomb-code the requests; fixed-width otherwise
	ss     [][]byte
	lcp    []int32 // Options.LCP; nil: nothing is skipped
	hasher fingerprint.Hasher
	states []fingerprint.State
	unique []bool // by candidate; set once, a unique candidate never returns
	touch  byte   // keeps the block touch's loads alive

	// This round.
	round     int    // 1-based, for the corrupt-message panics
	ell       int    // prefix length guess ℓ
	remaining uint64 // unresolved strings machine-wide
	hashRange uint64 // values are in [0, hashRange)
	bucket    uint64 // ⌈hashRange/p⌉: PE d owns [d·bucket, (d+1)·bucket)

	// Sender side, len(ss) each.
	reqs    []req    // this round's requests, candidate order
	routed  []req    // the same grouped by destination: routed[offs[d]:offs[d+1]] goes to PE d
	scratch []req    // the radix sort's other half
	fps     []uint64 // one group's values, for the encoders
	offs    []int
	bits    []bool // one destination's decoded verdicts

	// Outgoing messages of one exchange: parts[i] = msgs[ends[i-1]:ends[i]].
	// The all-to-alls copy what they send, so one buffer serves every
	// exchange of the call.
	msgs  []byte
	ends  []int
	parts [][]byte

	// Receiver side, grown to the largest round.
	lists   [][]uint64 // decoded values per source
	voffs   []int      // verdict[voffs[src]:voffs[src+1]] answers lists[src]
	verdict []bool
	heap    []int32 // sources ordered by their list's head
	heads   []int   // next unread position per source
}

func newDetector(c *comm.Comm, ss [][]byte, opt Options) *detector {
	p, n := c.P(), len(ss)
	return &detector{
		c:       c,
		g:       comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID),
		p:       p,
		golomb:  opt.Golomb,
		ss:      ss,
		lcp:     opt.LCP,
		hasher:  fingerprint.New(opt.Seed),
		states:  make([]fingerprint.State, n),
		unique:  make([]bool, n),
		reqs:    make([]req, n),
		routed:  make([]req, n),
		scratch: make([]req, n),
		fps:     make([]uint64, n),
		offs:    make([]int, p+1),
		bits:    make([]bool, 0, n),
		msgs:    make([]byte, 0, 8*n+2*binary.MaxVarintLen64*p), // n fixed-width values of 8 bytes
		ends:    make([]int, p),
		parts:   make([][]byte, p),
		lists:   make([][]uint64, p),
		voffs:   make([]int, p+1),
		heap:    make([]int32, 0, p),
		heads:   make([]int, p),
	}
}

// fingerprints returns the round's requests: every candidate whose length-ℓ
// prefix is not known to repeat the previous local string's (LCP < ℓ) has
// its hash state extended to that prefix and its fingerprint mapped into
// the hash range. Only fresh characters are hashed and billed. A string
// shorter than ℓ participates one final time with a *terminated*
// fingerprint — it must keep blocking longer strings that have it as a
// proper prefix (in the paper's model the 0-terminator is a real
// character). Strictly shorter: at exactly ℓ == |s| the prefix is the
// whole string WITHOUT the terminator and must collide with equal-length
// prefixes of longer strings.
func (d *detector) fingerprints(candidates []int32) []req {
	ell := d.ell
	reqs := d.reqs[:0]
	for _, ci := range candidates {
		if d.lcp == nil || int(d.lcp[ci]) < ell {
			reqs = append(reqs, req{cand: ci})
		}
	}
	var work int64
	for lo := 0; lo < len(reqs); lo += hashBlock {
		block := reqs[lo:min(lo+hashBlock, len(reqs))]
		touch := d.touch
		for _, r := range block {
			s := d.ss[r.cand]
			if from, upto := d.states[r.cand].Pos(), min(len(s), ell); from < upto {
				touch += s[from] + s[upto-1]
			}
		}
		d.touch = touch
		for i, r := range block {
			s, st := d.ss[r.cand], d.states[r.cand]
			upto := min(len(s), ell)
			work += int64(upto - st.Pos())
			st = d.hasher.Extend(st, s, upto)
			d.states[r.cand] = st
			var fp uint64
			if len(s) < ell {
				fp = d.hasher.FinalizeTerminated(st)
			} else {
				fp = d.hasher.Finalize(st)
			}
			block[i].fp, _ = bits.Mul64(fp, d.hashRange) // ⌊fp·R/2^64⌋
		}
	}
	d.c.AddWork(work)
	return reqs
}

// headsRun reports whether candidate ci stands for skipped local copies of
// its length-ℓ prefix this round (it was sent, so its own LCP is below ℓ).
func (d *detector) headsRun(ci int32) bool {
	return int(ci)+1 < len(d.lcp) && int(d.lcp[ci+1]) >= d.ell
}

// exchange is the round's all-to-all of the p messages packed into d.msgs
// (message i ends at d.ends[i]).
func (d *detector) exchange() [][]byte {
	start := 0
	for i, end := range d.ends {
		d.parts[i] = d.msgs[start:end]
		start = end
	}
	return d.g.Alltoallv(d.parts)
}

// uniqueRound routes each request to the PE that owns its value, counts
// global multiplicities there, and sets d.unique for every candidate whose
// value is globally unique and who heads no run of skipped copies. One
// collective call per PE.
func (d *detector) uniqueRound(reqs []req) {
	// Count per destination, then fill exact-size regions in request order.
	offs := d.offs
	clear(offs)
	for _, r := range reqs {
		offs[r.fp/d.bucket+1]++
	}
	for dst := 0; dst < d.p; dst++ {
		offs[dst+1] += offs[dst]
	}
	routed := d.routed[:len(reqs)]
	for _, r := range reqs {
		dst := r.fp / d.bucket
		routed[offs[dst]] = req{cand: r.cand, fp: r.fp - dst*d.bucket}
		offs[dst]++
	}
	copy(offs[1:], offs[:d.p]) // the fill advanced each start to its end
	offs[0] = 0

	// Fixed-width rounds: the fewest whole bytes that hold bucket-1.
	width := max(1, (bits.Len64(d.bucket-1)+7)/8)
	d.msgs = d.msgs[:0]
	for dst := range d.ends {
		group := routed[offs[dst]:offs[dst+1]]
		sortByFP(group, d.scratch)
		fps := d.fps[:len(group)]
		for j, r := range group {
			fps[j] = r.fp
		}
		if d.golomb {
			d.msgs = golomb.AppendEncodeSorted(d.msgs, fps)
		} else {
			d.msgs = wire.AppendUintsFixed(d.msgs, fps, width)
		}
		d.ends[dst] = len(d.msgs)
	}
	recvd := d.exchange()

	for src, msg := range recvd {
		if err := d.decodeRequests(src, msg, width); err != nil {
			panic(fmt.Sprintf("dupdetect: corrupt fingerprint message from PE %d in round %d: %v", src, d.round, err))
		}
		d.voffs[src+1] = d.voffs[src] + len(d.lists[src])
	}
	d.c.Release(recvd...) // the decoders copied the values out
	total := d.voffs[d.p]
	d.verdict = slices.Grow(d.verdict[:0], total)[:total]
	clear(d.verdict)
	d.countMerging()

	d.msgs = d.msgs[:0]
	for src := range d.ends {
		d.msgs = wire.AppendBitset(d.msgs, d.verdict[d.voffs[src]:d.voffs[src+1]])
		d.ends[src] = len(d.msgs)
	}
	verdicts := d.exchange()

	for dst, msg := range verdicts {
		group := routed[offs[dst]:offs[dst+1]]
		uniq, err := wire.AppendDecodeBitset(d.bits[:0], msg)
		if err == nil && len(uniq) != len(group) {
			err = fmt.Errorf("%d verdicts for %d requests", len(uniq), len(group))
		}
		if err != nil {
			panic(fmt.Sprintf("dupdetect: corrupt verdict message from PE %d in round %d: %v", dst, d.round, err))
		}
		for j, r := range group {
			if uniq[j] && !d.headsRun(r.cand) {
				d.unique[r.cand] = true
			}
		}
		d.bits = uniq
	}
	d.c.Release(verdicts...)
}

// decodeRequests decodes PE src's request message into d.lists[src] and
// checks what the round lets the receiver check: no PE can hold more
// candidates than the machine, every value is relative to this PE's base,
// so below the bucket width, and the sender sorted the list, so it
// ascends (the Golomb decoder yields nothing else).
func (d *detector) decodeRequests(src int, msg []byte, width int) error {
	var err error
	list := d.lists[src][:0]
	if d.golomb {
		list, err = golomb.AppendDecodeSorted(list, msg)
	} else {
		list, err = wire.AppendDecodeUintsFixed(list, msg, width)
	}
	if err != nil {
		return err
	}
	d.lists[src] = list
	if uint64(len(list)) > d.remaining {
		return fmt.Errorf("%d values in a round of %d candidates", len(list), d.remaining)
	}
	for i, v := range list {
		if v >= d.bucket {
			return fmt.Errorf("value %d outside the bucket width %d", v, d.bucket)
		}
		if i > 0 && v < list[i-1] {
			return fmt.Errorf("value %d after %d: the list does not ascend", v, list[i-1])
		}
	}
	return nil
}

// countMerging marks the verdict of every fingerprint that occurs once in
// the union of the p decoded lists, each of which is ascending
// (decodeRequests accepts nothing else). A binary heap of sources keyed by
// their list's head yields the values in ascending order; all runs of one
// value are consumed before its count is judged.
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

// sortByFP sorts a by fingerprint, stably, using tmp (at least as long) as
// the other half of an LSD radix sort on the eight bytes of fp. One read
// of a fills all eight histograms; a byte every key shares — the bytes
// above the round's hash range, all eight when every candidate still shares
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
