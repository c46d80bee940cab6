package partition

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// refElement tags a string with its (run, position) origin so the reference
// can realize the exact (string, run, position) total order by sorting.
type refElement struct {
	s        []byte
	run, pos int
}

// refSelect brute-forces the target smallest remaining elements by tagging
// and sorting, then counts how many land in each run.
func refSelect(runs [][][]byte, starts []int, target int) []int {
	var all []refElement
	for q := range runs {
		for i := startOf(starts, q); i < len(runs[q]); i++ {
			all = append(all, refElement{runs[q][i], q, i})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		c := bytes.Compare(all[a].s, all[b].s)
		if c != 0 {
			return c < 0
		}
		if all[a].run != all[b].run {
			return all[a].run < all[b].run
		}
		return all[a].pos < all[b].pos
	})
	pos := make([]int, len(runs))
	for q := range runs {
		pos[q] = startOf(starts, q)
	}
	for _, e := range all[:target] {
		pos[e.run]++
	}
	return pos
}

func checkSelect(t *testing.T, runs [][][]byte, starts []int, target int) {
	t.Helper()
	got := MultiSelect(runs, starts, target)
	want := refSelect(runs, starts, target)
	if len(got) != len(want) {
		t.Fatalf("target %d: got %d runs, want %d", target, len(got), len(want))
	}
	sum := 0
	for q := range got {
		if got[q] != want[q] {
			t.Fatalf("target %d: pos[%d] = %d, want %d (got %v want %v)",
				target, q, got[q], want[q], got, want)
		}
		if got[q] < startOf(starts, q) || got[q] > len(runs[q]) {
			t.Fatalf("target %d: pos[%d] = %d out of bounds [%d,%d]",
				target, q, got[q], startOf(starts, q), len(runs[q]))
		}
		sum += got[q] - startOf(starts, q)
	}
	if sum != target {
		t.Fatalf("target %d: counts sum to %d", target, sum)
	}
}

func sortedRun(strs ...string) [][]byte {
	run := make([][]byte, len(strs))
	for i, s := range strs {
		run[i] = []byte(s)
	}
	sort.Slice(run, func(a, b int) bool { return bytes.Compare(run[a], run[b]) < 0 })
	return run
}

func totalOf(runs [][][]byte, starts []int) int {
	n := 0
	for q := range runs {
		n += len(runs[q]) - startOf(starts, q)
	}
	return n
}

func TestMultiSelectAdversarial(t *testing.T) {
	cases := []struct {
		name string
		runs [][][]byte
	}{
		{"all-equal", [][][]byte{
			sortedRun("aaa", "aaa", "aaa"),
			sortedRun("aaa", "aaa"),
			sortedRun("aaa", "aaa", "aaa", "aaa"),
		}},
		{"empty-runs", [][][]byte{
			{},
			sortedRun("b", "c"),
			{},
			sortedRun("a", "d"),
			{},
		}},
		{"all-empty", [][][]byte{{}, {}, {}}},
		{"one-giant-run", [][][]byte{
			sortedRun("a", "b", "c", "d", "e", "f", "g", "h", "i", "j"),
			sortedRun("e"),
			{},
		}},
		{"k-equals-1", [][][]byte{
			sortedRun("x", "y", "z"),
		}},
		{"non-power-of-two-k", [][][]byte{
			sortedRun("apple", "cherry"),
			sortedRun("banana", "fig"),
			sortedRun("apple", "banana", "grape"),
			sortedRun("date"),
			sortedRun("banana"),
		}},
		{"empty-strings", [][][]byte{
			sortedRun("", "", "a"),
			sortedRun("", "a", "a"),
		}},
		{"shared-prefixes", [][][]byte{
			sortedRun("prefix", "prefixa", "prefixaa", "prefixab"),
			sortedRun("prefix", "prefixab", "prefixb"),
			sortedRun("prefixa", "prefixaa"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := totalOf(tc.runs, nil)
			for target := 0; target <= total; target++ {
				checkSelect(t, tc.runs, nil, target)
			}
		})
	}
}

func TestMultiSelectNonzeroStarts(t *testing.T) {
	runs := [][][]byte{
		sortedRun("a", "b", "b", "c", "e"),
		sortedRun("b", "b", "d"),
		sortedRun("a", "a", "f"),
	}
	starts := []int{2, 1, 0}
	total := totalOf(runs, starts)
	for target := 0; target <= total; target++ {
		checkSelect(t, runs, starts, target)
	}
}

func TestMultiSelectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"", "a", "aa", "ab", "abc", "b", "ba", "bb", "c", "ca"}
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(7)
		runs := make([][][]byte, k)
		starts := make([]int, k)
		for q := range runs {
			n := rng.Intn(12)
			strs := make([]string, n)
			for i := range strs {
				strs[i] = alphabet[rng.Intn(len(alphabet))]
			}
			runs[q] = sortedRun(strs...)
			if n > 0 {
				starts[q] = rng.Intn(n + 1)
			}
		}
		useStarts := starts
		if trial%2 == 0 {
			useStarts = nil
		}
		total := totalOf(runs, useStarts)
		for _, target := range []int{0, total / 3, total / 2, total} {
			checkSelect(t, runs, useStarts, target)
		}
	}
}
