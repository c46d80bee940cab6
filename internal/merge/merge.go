// Package merge implements K-way merging of sorted string runs with loser
// trees (tournament trees): the classic atomic variant used by the FKmerge
// baseline, and the LCP-aware variant of Section II-B of the paper
// [Bingmann, Eberle, Sanders: Engineering Parallel String Sorting], which
// merges m strings with at most m·log K + ΔL character comparisons, where
// ΔL is the total increment of the LCP array entries — every character is
// inspected only once across the whole merge.
//
// Both variants optionally carry one word of satellite data per string
// through the merge and break ties by input run index, making the merge
// stable with respect to the run order (runs arrive ordered by source PE,
// so equal strings stay ordered by origin).
package merge

import (
	"dss/internal/strutil"
)

// Sequence is one sorted input run and the merged output format.
type Sequence struct {
	Strings [][]byte
	LCPs    []int32  // LCPs[i] = LCP(Strings[i-1], Strings[i]); LCPs[0] = 0
	Sats    []uint64 // optional satellite data, parallel to Strings
}

// Len returns the number of strings in the sequence.
func (s Sequence) Len() int { return len(s.Strings) }

// Merge performs a K-way merge of resident runs with the loser tree,
// LCP-aware if lcp: the runs' LCP arrays are consumed and the output
// carries one. Without lcp the plain tree of FKmerge and MS-simple runs,
// input LCP arrays are ignored and the output has none. Satellites are
// carried if any run has them. Returns the merged run, whose strings alias
// the inputs', and the number of characters inspected.
func Merge(seqs []Sequence, lcp bool) (Sequence, int64) {
	total := 0
	anySats := false
	srcs := make([]Source, len(seqs))
	for i, s := range seqs {
		if lcp && s.Len() > 0 && len(s.LCPs) != s.Len() {
			panic("merge: sequence missing LCP array")
		}
		if s.Sats != nil {
			if len(s.Sats) != s.Len() {
				panic("merge: satellite array length mismatch")
			}
			anySats = true
		}
		total += s.Len()
		srcs[i] = &sliceSource{seq: s}
	}
	var out Sequence
	if total == 0 {
		return out, 0
	}
	out.Strings = make([][]byte, 0, total)
	if lcp {
		out.LCPs = make([]int32, 0, total)
	}
	if anySats {
		out.Sats = make([]uint64, 0, total)
	}
	_, work, _ := MergeSink(srcs, lcp, func(s []byte, h int32, sat uint64) error {
		out.Strings = append(out.Strings, s)
		if lcp {
			out.LCPs = append(out.LCPs, h)
		}
		if anySats {
			out.Sats = append(out.Sats, sat)
		}
		return nil
	})
	return out, work
}

// MergeLCP is Merge with the LCP loser tree: it inspects each character at
// most once and produces the LCP array of the output.
func MergeLCP(seqs []Sequence) (Sequence, int64) {
	return Merge(seqs, true)
}

// tree is the array-based loser tree over K pull-based streams (K padded
// to a power of two with exhausted sentinel streams) — the one tree behind
// every merge of the package. Internal nodes 1..k-1 store the loser stream
// of the comparison at that node; leaves are implicit. Each stream's
// current head is cached beside its satellite word and its LCP with the
// last output, so a comparison never calls into a Source. The backing
// arrays come from the size-classed package pool (pool.go).
type tree struct {
	k      int   // number of leaves, power of two
	loser  []int // loser[node] for node in [1,k)
	srcs   []Source
	heads  [][]byte // per-stream current head; nil = exhausted (+∞ sentinel)
	sats   []uint64 // per-stream satellite word of the current head
	curH   []int32  // per-stream LCP of the current head with the last output
	useLCP bool
	work   int64
	winner int // current overall winner (valid after init)
	state  *treeState
}

// newTree builds a tree over the sources with pooled state and pulls every
// stream's first head (blocking until each run can produce one). Callers
// then call init before emit.
func newTree(srcs []Source, useLCP bool) *tree {
	k := 1
	for k < len(srcs) {
		k <<= 1
	}
	st := getTreeState(k)
	t := &tree{
		k:      k,
		loser:  st.loser[:k],
		srcs:   srcs,
		heads:  st.heads[:k],
		sats:   st.sats[:k],
		curH:   st.curH[:k],
		useLCP: useLCP,
		state:  st,
	}
	for s := range srcs {
		t.pull(s) // padding streams keep the pool's nil heads
	}
	// No output yet: every stream starts at LCP 0, whatever LCP entry its
	// first string carries.
	clear(t.curH)
	return t
}

// release returns the tree's backing arrays to the package pool. The tree
// must not be used afterwards.
func (t *tree) release() {
	putTreeState(t.state)
	t.state = nil
}

// pull advances stream s to its next string and caches it. The new head's
// LCP with the last output is exactly the stream's own LCP entry, because
// pull is only called on the stream whose previous head WAS the last
// output.
func (t *tree) pull(s int) {
	h, lcp, sat, ok := t.srcs[s].Next()
	if !ok {
		h, lcp, sat = nil, 0, 0
	}
	t.heads[s], t.sats[s] = h, sat
	if t.useLCP {
		t.curH[s] = lcp
	}
}

// lessHeadsPlain compares stream heads with full comparisons; nil is +∞
// and ties break toward the lower stream index.
func lessHeadsPlain(sa, sb []byte, a, b int, work *int64) bool {
	switch {
	case sa == nil && sb == nil:
		return a < b
	case sa == nil:
		return false
	case sb == nil:
		return true
	}
	cmp, lcp := strutil.CompareLCP(sa, sb, 0)
	*work += int64(lcp + 1)
	if cmp == 0 {
		return a < b
	}
	return cmp < 0
}

// lessHeadsLCP compares stream heads using the LCP-compare rule: both
// heads are ≥ the last output w and curH[s] = LCP(head(s), w), so if the
// curH values differ the head with the longer shared prefix is smaller,
// without looking at a single character. On equality it compares from the
// shared prefix and updates the loser's curH to LCP(a, b) so the invariant
// (curH of a node's loser = LCP with the winner that passed the node) is
// maintained.
func lessHeadsLCP(sa, sb []byte, a, b int, curH []int32, work *int64) bool {
	switch {
	case sa == nil && sb == nil:
		return a < b
	case sa == nil:
		return false
	case sb == nil:
		return true
	}
	ha, hb := curH[a], curH[b]
	switch {
	case ha > hb:
		// a shares more with w: a < b, and LCP(a,b) = hb = curH[b]. b is
		// the loser and its curH already equals LCP with the new winner.
		return true
	case ha < hb:
		return false
	default:
		cmp, lcp := strutil.CompareLCP(sa, sb, int(ha))
		*work += int64(lcp - int(ha) + 1)
		if cmp < 0 || (cmp == 0 && a < b) {
			curH[b] = int32(lcp) // b loses to a
			return true
		}
		curH[a] = int32(lcp) // a loses to b
		return false
	}
}

func (t *tree) less(a, b int) bool {
	if t.useLCP {
		return lessHeadsLCP(t.heads[a], t.heads[b], a, b, t.curH, &t.work)
	}
	return lessHeadsPlain(t.heads[a], t.heads[b], a, b, &t.work)
}

// initNode plays the initial tournament of the subtree rooted at node and
// returns its winner stream.
func (t *tree) initNode(node int) int {
	if node >= t.k {
		return node - t.k
	}
	l := t.initNode(2 * node)
	r := t.initNode(2*node + 1)
	if t.less(l, r) {
		t.loser[node] = r
		return l
	}
	t.loser[node] = l
	return r
}

// init plays the initial tournament, billing its comparisons to the work
// counter.
func (t *tree) init() {
	t.winner = t.initNode(1)
}

// emit pushes the merged items into sink, in order, until every stream is
// exhausted, and returns how many it delivered. A sink error aborts the
// merge and is returned; the streams are left mid-run.
func (t *tree) emit(sink Sink) (int, error) {
	w := t.winner
	i := 0
	for ; ; i++ {
		h := t.heads[w]
		if h == nil {
			break
		}
		if err := sink(h, t.curH[w], t.sats[w]); err != nil {
			t.winner = w
			return i, err
		}
		t.pull(w)
		// Replay the path from the winner's leaf to the root.
		for node := (w + t.k) / 2; node >= 1; node /= 2 {
			if t.less(t.loser[node], w) {
				t.loser[node], w = w, t.loser[node]
			}
		}
	}
	t.winner = w
	return i, nil
}
