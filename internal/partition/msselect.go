// Multisequence selection: exact rank-based splitting of K sorted runs.
// Where the rest of this package picks APPROXIMATE splitters by sampling
// (Step 2 decides which PE a string belongs to, and imbalance there only
// costs load), MultiSelect finds the EXACT boundary of a given global rank
// in the union of the runs — without merging, by binary-searching ranks.
// The repository benchmark's layer walk times it on a PE's received runs.
//
// Total order. Elements are ordered by (string, run index, position):
// ties between equal strings break toward the lower run, and within one
// run toward the earlier position — exactly the order of the loser trees
// in internal/merge (lower stream index wins ties, runs are FIFO). Under
// a total order every element has a distinct global rank, so the selected
// per-run counts always sum to the requested target, with no tie
// fix-up pass.
//
// These functions are pure (no communicator, no accounting).
package partition

import (
	"bytes"
	"sort"
)

// MultiSelect returns, for each run, the absolute position pos[q] in
// [starts[q], len(runs[q])] such that the elements runs[q][starts[q]:pos[q]]
// are exactly the `target` globally smallest remaining elements under the
// (string, run, position) order. starts may be nil (all zeros); target must
// be in [0, total remaining]. The per-run counts pos[q]−starts[q] sum to
// target. Cost: O(K² · log²(n/K)) string comparisons.
func MultiSelect(runs [][][]byte, starts []int, target int) []int {
	k := len(runs)
	pos := make([]int, k)
	for q := 0; q < k; q++ {
		lo := startOf(starts, q)
		rem := len(runs[q]) - lo
		// pos[q] − lo = number of run-q elements among the target smallest
		// = first relative index i whose global rank reaches target. The
		// rank is strictly increasing in i (distinct ranks), so the
		// predicate is monotone and sort.Search applies.
		pos[q] = lo + sort.Search(rem, func(i int) bool {
			return rankOf(runs, starts, q, i) >= target
		})
	}
	return pos
}

// rankOf returns the global rank (number of strictly smaller remaining
// elements under the (string, run, position) order) of element i (relative
// to the run's start) of run q.
func rankOf(runs [][][]byte, starts []int, q, i int) int {
	w := runs[q][startOf(starts, q)+i]
	rank := i // earlier elements of the same run are all smaller
	for r := range runs {
		if r == q {
			continue
		}
		sub := runs[r][startOf(starts, r):]
		if r < q {
			// A lower run wins ties: elements of r that compare ≤ w
			// precede (w, q, ·).
			rank += sort.Search(len(sub), func(j int) bool {
				return bytes.Compare(sub[j], w) > 0
			})
		} else {
			// A higher run loses ties: only strictly smaller elements
			// precede.
			rank += sort.Search(len(sub), func(j int) bool {
				return bytes.Compare(sub[j], w) >= 0
			})
		}
	}
	return rank
}

// startOf reads starts[q] with nil meaning zero.
func startOf(starts []int, q int) int {
	if starts == nil {
		return 0
	}
	return starts[q]
}
