// Package strsort implements the string sorting stack used as the base case
// of all distributed algorithms (Section II-A of the paper): MSD string
// radix sort down to small subproblems, multikey quicksort
// (Bentley-Sedgewick) below that, and LCP-aware insertion sort for constant
// size inputs. The sorters produce the LCP array as part of the output at
// no additional asymptotic cost and report the number of characters
// inspected, the work measure the cost model is based on.
//
// The sorters move no slice headers but one pointer-free 12-byte proxy per
// string: its index in the caller's array and a cached word holding its
// next keyChars characters and how many of them exist (which tells "the
// string ends here" from a real 0x00) — the caching of
// Bingmann-Eberle-Sanders' multikey quicksort and Kärkkäinen-Rantala's
// radix sorts. Radix passes and partitions read the character at the
// current depth out of that word instead of taking a cache miss per string
// and level. A level that finds the whole subproblem in one non-end bucket
// does not step to the next character: commonPrefix finds the longest
// prefix the subproblem shares, from the cached words where they decide
// and by a geometrically growing scan of string memory where they do not,
// and the sort continues there. A window is loaded at the depth that runs
// past the one before, not at a multiple of keyChars, so a jump lands on
// keyChars fresh characters. String memory is thus touched when a
// subproblem's shared prefix outruns its window, when its depth runs past
// the window, and when two strings are compared beyond their windows.
// The model statistics do not see any of it: work is billed by depth
// advanced, never by loads — every radix level and every partition one
// character per string, every comparison LCP − depth + 1 — so the totals
// are those of the same algorithms run directly on the strings. A jump
// over a shared prefix bills the levels it skips, n characters each, and
// those levels moved nothing, so permutation, LCPs and work are the
// level-by-level ones, bit for bit.
//
// The output of a sort is its permutation, the proxies' index column:
// order[i] is the position in the caller's array of the i-th smallest
// string. There is no final gather of the sorted strings; a caller reads
// them through the order (strutil.Set), as tlx's StringSet does, and the
// caller's array is never permuted. Only the in-place front-ends SortLCP
// and Sort apply the order to the array (and to an optional satellite
// array beside it).
//
// One sort takes at most 2^32 strings (the proxy's index width); a longer
// array panics at the entry point instead of being sorted through
// truncated indices.
package strsort

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"

	"dss/internal/par"
	"dss/internal/strutil"
)

// Thresholds: subproblems with at least radixThreshold strings are sorted
// by one MSD radix sort pass; medium ones by multikey quicksort; below
// insertionThreshold plain LCP insertion sort takes over.
const (
	radixThreshold     = 128
	insertionThreshold = 16
)

// keyChars is the number of characters a proxy caches: seven in the high
// bytes of its word, most significant first, above a count byte.
const keyChars = 7

// maxStrings is the largest array one sort accepts. It is a variable only
// so that a test can trip the check without building 2^32 strings.
var maxStrings int64 = 1 << 32

// proxy stands for one string while it is being sorted. The cached word is
// kept in halves so that a proxy is 12 bytes, not 16: with the scatter
// scratch that is the 24 bytes per string of the header array it replaces.
// All proxies of a subproblem cache the window that starts at one depth,
// its base, which every sorter below takes beside the subproblem's depth:
// base ≤ depth < base + keyChars once the subproblem is entered, and a
// sorter that finds its depth past the window loads the one at its depth.
type proxy struct {
	lo, hi uint32 // the cached word: characters, then how many are real
	idx    uint32 // position of the string in the caller's array
}

func (p *proxy) key() uint64 { return uint64(p.lo) | uint64(p.hi)<<32 }

// bucket returns the radix bucket of the character at window offset off:
// 0 if the string ends there, c+1 for a character c. Multikey quicksort
// orders by the same value (end-of-string sorts before every character).
func (p *proxy) bucket(off uint) int {
	k := p.key()
	if uint(uint8(k)) == off {
		return 0
	}
	return int(uint8(k>>((56-8*off)&63))) + 1
}

// load caches, in every proxy of px, the window of its string that starts
// at depth. With commonPrefix's scan it is the kernel's only random access
// into string memory outside comparisons.
func load(ss [][]byte, px []proxy, depth int) {
	for i := range px {
		t := ss[px[i].idx][depth:]
		var k uint64
		if len(t) > keyChars {
			k = binary.BigEndian.Uint64(t)&^0xff | keyChars
		} else {
			for j, c := range t {
				k |= uint64(c) << (56 - 8*j)
			}
			k |= uint64(len(t))
		}
		px[i].lo, px[i].hi = uint32(k), uint32(k>>32)
	}
}

// SortLCP sorts ss in place lexicographically, computes its LCP array
// (lcp[0] == 0, lcp[i] == LCP(ss[i-1], ss[i])), permutes sat alongside if
// non-nil, and returns the number of characters inspected.
func SortLCP(ss [][]byte, sat []uint64) (lcp []int32, work int64) {
	order, lcp, work, _ := ParallelSortLCP(nil, ss, nil)
	permute(ss, sat, order)
	return lcp, work
}

// Sort sorts ss in place without producing an LCP array, permuting sat
// alongside if non-nil, and returns the number of characters inspected.
func Sort(ss [][]byte, sat []uint64) (work int64) {
	order, work, _ := ParallelSort(nil, ss)
	permute(ss, sat, order)
	return work
}

// permute applies a sort's order to ss and, if non-nil, sat.
func permute(ss [][]byte, sat []uint64, order []uint32) {
	if sat != nil && len(sat) != len(ss) {
		panic("strsort: satellite length mismatch")
	}
	copy(ss, strutil.Set{Strings: ss, Order: order}.Gather())
	if sat != nil {
		sorted := make([]uint64, len(sat))
		for i, k := range order {
			sorted[i] = sat[k]
		}
		copy(sat, sorted)
	}
}

// sortProxies is the one path behind all four entry points: build the
// proxies, sort them — by MSD radix sort with LCP output if lcp is
// non-nil, by multikey quicksort otherwise —, and return their index
// column as the order, leaving ss untouched. On a sequential pool every
// pass and task below runs inline on the caller.
func sortProxies(pool *par.Pool, ss [][]byte, lcp []int32) (order []uint32, work, busy int64) {
	n := len(ss)
	if int64(n) > maxStrings {
		panic(fmt.Sprintf("strsort: %d strings in one sort, the limit is %d", n, maxStrings))
	}
	m := n
	if lcp != nil {
		m = 2 * n // the radix passes distribute out of place
	}
	scratch := make([]proxy, m)
	px, tmp := scratch[:n], scratch[n:]
	for i := range px {
		px[i].idx = uint32(i)
	}

	ps := &parSorter{pool: pool, grp: pool.Group(), ss: ss}
	if n > 1 && lcp != nil {
		ps.radix(px, tmp, lcp, 0, -keyChars) // no window yet: the first level loads
	} else if n > 1 {
		ps.load(px, 0)
		ps.mkq(px, 0, 0)
	}
	ps.grp.Wait() // join + panic propagation; busy is tracked by ps.busy
	order = make([]uint32, n)
	w := ps.chunks(n)
	ps.pass(w, func(k int) {
		lo, hi := chunk(k, w, n)
		for i := lo; i < hi; i++ {
			order[i] = px[i].idx
		}
	})
	return order, ps.work.Load(), ps.busy.Load()
}

// kernel is the sequential sorter of one subproblem: the strings the
// proxies index and the characters-inspected counter.
type kernel struct {
	ss   [][]byte
	work int64
}

// radix sorts one subproblem whose strings all share a prefix of length
// depth, with the window at base cached, assigning lcp[1:] within it
// (lcp[0], the boundary with whatever precedes the subproblem, belongs to
// the caller). Like its parallel form it is entered once per subproblem
// and depth, which makes it the place where the windows are reloaded when
// depth has run past them.
func (k *kernel) radix(px, tmp []proxy, lcp []int32, depth, base int) {
	n := len(px)
	var count [257]int
	for {
		if depth-base >= keyChars {
			load(k.ss, px, depth)
			base = depth
		}
		off := uint(depth - base)
		if n < radixThreshold {
			k.mkqsort(px, depth, base)
			k.fillLCP(px, lcp, depth)
			return
		}
		// Counting pass over the (depth+1)-st character.
		for i := range px {
			count[px[i].bucket(off)]++
		}
		k.work += int64(n)
		b := px[0].bucket(off)
		if count[b] < n {
			break
		}
		// All strings fall into one bucket, so the stable distribution is
		// the identity: no scatter, and the levels below run right here,
		// from the first one that can split.
		if b == 0 {
			fillDepth(lcp[1:], depth) // n equal strings
			return
		}
		count[b] = 0
		depth = k.skip(px, depth, base)
	}

	// Out-of-place stable distribution, then copy back; next[b] ends up at
	// the end of bucket b.
	off := uint(depth - base)
	var next [257]int
	sum := 0
	for b := range count {
		next[b] = sum
		sum += count[b]
	}
	for i := range px {
		b := px[i].bucket(off)
		tmp[next[b]] = px[i]
		next[b]++
	}
	copy(px, tmp)
	buckets(&count, &next, lcp, depth, func(lo, hi int) {
		k.radix(px[lo:hi], tmp[lo:hi], lcp[lo:hi], depth+1, base)
	})
}

func fillDepth(lcp []int32, depth int) {
	for i := range lcp {
		lcp[i] = int32(depth)
	}
}

// buckets finishes one radix level after the distribution: it assigns the
// LCP values the level decides — depth at the boundary between two buckets
// and between the equal strings of the end bucket; index 0 is the caller's
// — and calls recurse for every bucket [lo, hi) with something left to sort.
func buckets(count, end *[257]int, lcp []int32, depth int, recurse func(lo, hi int)) {
	if count[0] > 1 {
		fillDepth(lcp[1:count[0]], depth)
	}
	for b := 1; b <= 256; b++ {
		hi := end[b]
		lo := hi - count[b]
		if lo < hi && lo > 0 {
			lcp[lo] = int32(depth)
		}
		if count[b] > 1 {
			recurse(lo, hi)
		}
	}
}

// partition is the ternary split of multikey quicksort on the character at
// window offset off, around the median of three [Bentley & Sedgewick
// 1997]: afterwards [0,lt) < pivot, [lt,gt] == pivot, (gt,n) > pivot.
// atEnd reports that the pivot is end-of-string, i.e. that the equal part
// holds fully equal strings.
func partition(px []proxy, off uint) (lt, gt int, atEnd bool) {
	n := len(px)
	a, b, c := px[0].bucket(off), px[n/2].bucket(off), px[n-1].bucket(off)
	p := max(min(a, b), min(max(a, b), c))
	lt, i, gt := 0, 0, n-1
	for i <= gt {
		c := px[i].bucket(off)
		switch {
		case c < p:
			px[lt], px[i] = px[i], px[lt]
			lt++
			i++
		case c > p:
			px[i], px[gt] = px[gt], px[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt, p == 0
}

// mkqsort is multikey quicksort: ternary partition on the character at
// position depth, recursing into <, =, > parts; characters before depth
// are equal across the subproblem and never inspected again. The window at
// base must hold depth, and is kept so for every part down to insertion
// sort.
func (k *kernel) mkqsort(px []proxy, depth, base int) {
	for len(px) > insertionThreshold {
		lt, gt, atEnd := partition(px, uint(depth-base))
		k.work += int64(len(px))
		k.mkqsort(px[:lt], depth, base)
		k.mkqsort(px[gt+1:], depth, base)
		if atEnd {
			return // fully equal strings: nothing left to sort
		}
		// Tail-call into the equal part one character deeper, or, when it
		// is the whole subproblem, at the first depth that can split it.
		m := depth + 1
		if lt == 0 && gt == len(px)-1 {
			m = k.skip(px, depth, base)
		}
		px, depth = px[lt:gt+1], m
		if depth-base >= keyChars && len(px) > 1 {
			load(k.ss, px, depth)
			base = depth
		}
	}
	k.insertionSort(px, depth, base)
}

// skip advances a subproblem whose strings all share depth+1 characters
// to m, the longest prefix they share, and bills the (m − depth − 1)·n
// characters that the levels in between — each one counting pass or
// partition with a single non-end bucket, which moves nothing — would have
// inspected.
func (k *kernel) skip(px []proxy, depth, base int) (m int) {
	m = commonPrefix(k.ss, px, base)
	k.work += int64(m-depth-1) * int64(len(px))
	return m
}

// probeChars is how far the first round of commonPrefix's scan of string
// memory reads, a cache line's worth: the round costs one miss per string
// whether it reads 8 characters or 64. Every further round reads twice as
// far as the one before.
const probeChars = 64

// commonPrefix returns the length of the longest prefix that all strings of
// px share, given that px caches the window at base and that they share
// the characters before it. The cached words decide without touching
// string memory unless every window agrees with px[0]'s to its end; then
// the strings are compared with px[0]'s from there in rounds of probeChars,
// 2·probeChars, … characters over all strings. A mismatch ends the scan
// with its round, wherever in px its string lies, so the strings that
// agree longer are not read to their ends: none is read more than
// 2·(m − e) + probeChars characters past the window's end e, for the
// result m.
func commonPrefix(ss [][]byte, px []proxy, base int) int {
	m := base + windowAgree(px, px[0].key())
	if m < base+keyChars {
		return m
	}
	ref := ss[px[0].idx]
	return probe(m, len(ref), func(lo, hi int) int { return agree(ss, px[1:], ref, lo, hi) })
}

// probe is the scan of string memory behind commonPrefix, from m, where
// every window agreed to its end, for a reference string of length n:
// round(lo, hi) returns the longest prefix, at most hi, that all strings
// share with the reference, given that they share lo characters.
func probe(m, n int, round func(lo, hi int) int) int {
	for step := probeChars; ; step *= 2 {
		lo := m
		if m = round(lo, min(lo+step, n)); m < lo+step {
			return m
		}
	}
}

// windowAgree returns how many leading characters of its cached window
// every proxy of px shares with the cached word k0, which counts a string
// that ends inside the window as disagreeing there.
func windowAgree(px []proxy, k0 uint64) int {
	a := int(uint8(k0))
	for i := range px {
		k := px[i].key()
		a = min(a, int(uint8(k)), bits.LeadingZeros64((k^k0)|0xff)/8)
	}
	return a
}

// agree returns the length of the longest prefix, at most hi, that every
// string of px shares with ref[:hi], given that all of them share lo
// characters with it.
func agree(ss [][]byte, px []proxy, ref []byte, lo, hi int) int {
	for i := 0; i < len(px) && hi > lo; i++ {
		s := ss[px[i].idx]
		_, hi = strutil.CompareLCP(ref[:hi], s[:min(hi, len(s))], lo)
	}
	return hi
}

// compare returns what strutil.CompareLCP(a's string, b's string, base)
// returns, for two proxies of one subproblem that cache the window at
// base. The windows decide when they differ or a string ends inside them;
// only strings that agree through the whole window are read.
func (k *kernel) compare(a, b *proxy, base int) (order, lcp int) {
	ka, kb := a.key(), b.key()
	same := bits.LeadingZeros64((ka^kb)|0xff) / 8 // equal cached bytes, 0..keyChars
	ra, rb := int(uint8(ka)), int(uint8(kb))
	switch m := min(ra, rb); {
	case same < m: // both strings have a character there, and it differs
		return cmp.Compare(ka, kb), base + same
	case m == keyChars:
		return strutil.CompareLCP(k.ss[a.idx], k.ss[b.idx], base+keyChars)
	default: // the shorter string ends inside the window, a prefix of the other
		return cmp.Compare(ra, rb), base + m
	}
}

// insertionSort sorts a small subproblem whose strings share a prefix of
// length depth, comparing only from depth onwards through the windows at
// base.
func (k *kernel) insertionSort(px []proxy, depth, base int) {
	for i := 1; i < len(px); i++ {
		p := px[i]
		j := i
		for j > 0 {
			order, lcp := k.compare(&px[j-1], &p, base)
			k.work += int64(lcp - depth + 1)
			if order <= 0 {
				break
			}
			px[j] = px[j-1]
			j--
		}
		px[j] = p
	}
}

// fillLCP computes lcp[1:] of a sorted subproblem whose strings share a
// prefix of length depth. Characters before depth are not inspected.
func (k *kernel) fillLCP(px []proxy, lcp []int32, depth int) {
	for i := 1; i < len(px); i++ {
		_, h := strutil.CompareLCP(k.ss[px[i-1].idx], k.ss[px[i].idx], depth)
		k.work += int64(h - depth + 1)
		lcp[i] = int32(h)
	}
}
