// Package verify provides distributed correctness checks for the sorters:
// global sortedness across PE boundaries, LCP array validation, and
// order-independent multiset preservation. The checks communicate only
// O(1) data per PE and are used by the test suite, the CLI tools and the
// benchmark harness (with statistics excluded from the measured run).
package verify

import (
	"errors"
	"fmt"

	"dss/internal/comm"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// Errors returned by the checks.
var (
	ErrLocalOrder  = errors.New("verify: fragment not locally sorted")
	ErrGlobalOrder = errors.New("verify: fragments out of order across PEs")
	ErrLCP         = errors.New("verify: LCP array mismatch")
	ErrMultiset    = errors.New("verify: output is not a permutation of the input")
)

// SortednessLCP checks that every PE's fragment is locally sorted and that
// the fragments are globally ordered by rank (PE i's last string ≤ PE
// i+1's first string, skipping empty PEs). When lcps is non-nil it also
// validates the LCP array, in the same pass: ONE CompareLCP per adjacent
// pair checks order and LCP value at once — the sorters already produced
// the LCP array, so validating it subsumes the order check. Collective
// call: every PE must enter it, and every PE participates in the exchange
// even if its own fragment is already known to be out of order (an early
// return on one PE would deadlock the others inside the collective). The
// message schedule is the same with and without lcps.
func SortednessLCP(c *comm.Comm, ss [][]byte, lcps []int32, gid int) error {
	var localErr error
	if lcps != nil {
		if i := strutil.ValidateSortedLCP(ss, lcps); i >= 0 {
			// Distinguish order violations from LCP mismatches only on the
			// failure path.
			if i > 0 && strutil.Compare(ss[i-1], ss[i]) > 0 {
				localErr = fmt.Errorf("%w at index %d", ErrLocalOrder, i)
			} else {
				localErr = fmt.Errorf("%w at index %d", ErrLCP, i)
			}
		}
	} else if !strutil.IsSorted(ss) {
		localErr = ErrLocalOrder
	}
	var first, last []byte
	if len(ss) > 0 {
		first, last = ss[0], ss[len(ss)-1]
	}
	return boundaryCheck(c, localErr, len(ss) > 0, first, last, gid)
}

// boundaryCheck runs the collective half of the sortedness checks: every
// PE contributes its local verdict and its fragment's first/last string,
// and the shared scan asserts PE i's last ≤ PE i+1's first (skipping
// empty PEs). Collective call with one Allgatherv; the materialized and
// the streaming front-ends share it, so their message schedules are
// identical and mixed use across PEs is allowed.
func boundaryCheck(c *comm.Comm, localErr error, nonEmpty bool, first, last []byte, gid int) error {
	g := comm.NewGroup(c, comm.WorldRanks(c.P()), gid)
	w := wire.NewBuffer(32)
	if localErr == nil {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
	if !nonEmpty {
		w.Uvarint(0)
	} else {
		w.Uvarint(1)
		w.BytesPrefixed(first)
		w.BytesPrefixed(last)
	}
	parts := g.Allgatherv(w.Bytes())
	var prevLast []byte
	havePrev := false
	var firstErr error
	for pe, part := range parts {
		r := wire.NewReader(part)
		sortedFlag, err0 := r.Uvarint()
		has, err := r.Uvarint()
		if err0 != nil || err != nil {
			return fmt.Errorf("verify: corrupt boundary message from PE %d", pe)
		}
		if sortedFlag == 0 && firstErr == nil {
			if pe == c.Rank() && localErr != nil {
				firstErr = fmt.Errorf("%w (PE %d)", localErr, pe)
			} else {
				firstErr = fmt.Errorf("%w (PE %d)", ErrLocalOrder, pe)
			}
		}
		if has == 0 {
			continue
		}
		peFirst, err1 := r.BytesPrefixed()
		peLast, err2 := r.BytesPrefixed()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("verify: corrupt boundary message from PE %d", pe)
		}
		if havePrev && strutil.Compare(prevLast, peFirst) > 0 && firstErr == nil {
			firstErr = fmt.Errorf("%w (boundary before PE %d)", ErrGlobalOrder, pe)
		}
		prevLast = append([]byte(nil), peLast...)
		havePrev = true
	}
	return firstErr
}

// StreamChecker is the out-of-core counterpart of SortednessLCP: a PE
// whose fragment lives in a sorted-run file streams it through Add in
// output order — no materialized array needed, memory use is two string
// buffers — and Finish runs the same collective boundary exchange as
// SortednessLCP. Add validates local order and, for runs carrying an LCP
// column, that each stored LCP is exactly the true LCP with the previous
// item.
type StreamChecker struct {
	n        int64
	first    []byte
	prev     []byte
	started  bool
	localErr error
}

// Add feeds the next item of the fragment. s may alias a reused buffer —
// the checker copies what it keeps.
func (sc *StreamChecker) Add(s []byte, lcp int32, hasLCP bool) {
	if !sc.started {
		sc.started = true
		sc.first = append([]byte(nil), s...)
	} else if sc.localErr == nil {
		h := matchLen(sc.prev, s)
		if h < len(sc.prev) && (h == len(s) || sc.prev[h] > s[h]) {
			sc.localErr = fmt.Errorf("%w at index %d", ErrLocalOrder, sc.n)
		} else if hasLCP && int(lcp) != h {
			sc.localErr = fmt.Errorf("%w at index %d", ErrLCP, sc.n)
		}
	}
	sc.prev = append(sc.prev[:0], s...)
	sc.n++
}

// Finish completes the check across PE boundaries. Collective call with
// the same message schedule as SortednessLCP.
func (sc *StreamChecker) Finish(c *comm.Comm, gid int) error {
	return boundaryCheck(c, sc.localErr, sc.started, sc.first, sc.prev, gid)
}

// matchLen returns the length of the longest common prefix of a and b.
func matchLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// MultisetStream checks that the global output multiset equals the global
// input multiset: every PE contributes (hash, count) of its local input and
// of its local output, whose strings the caller folded through
// strutil.MultisetAdd as it produced them; the sums must agree. Collective
// call.
func MultisetStream(c *comm.Comm, input [][]byte, outHash uint64, outCount int64, gid int) error {
	g := comm.NewGroup(c, comm.WorldRanks(c.P()), gid)
	sums := g.AllreduceUint64([]uint64{
		strutil.MultisetHash(input), uint64(len(input)),
		outHash, uint64(outCount),
	}, comm.Sum)
	if sums[0] != sums[2] || sums[1] != sums[3] {
		return fmt.Errorf("%w (count %d → %d)", ErrMultiset, sums[1], sums[3])
	}
	return nil
}
