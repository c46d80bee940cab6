package stringsort

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dss/internal/input"
)

// coreInvariant additionally zeroes the Cores configuration echo, which —
// unlike everything else deterministic() keeps — legitimately differs when
// the configs under comparison run DIFFERENT pool widths. Everything that
// remains must be bit-identical at every width.
func coreInvariant(st Stats) Stats {
	st = deterministic(st)
	st.Cores = 0
	return st
}

// equalFragments compares the per-PE fragments of two results exactly:
// strings, LCP arrays and origins. The parallel pool must not perturb the
// output permutation, only the wall clock.
func equalFragments(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.PEs) != len(b.PEs) {
		t.Fatalf("%s: %d vs %d PE fragments", label, len(a.PEs), len(b.PEs))
	}
	for pe := range a.PEs {
		if !equalOutputs(a.PEs[pe].Strings, b.PEs[pe].Strings) {
			t.Fatalf("%s: PE %d fragment differs", label, pe)
		}
		al, bl := a.PEs[pe].LCPs, b.PEs[pe].LCPs
		if len(al) != len(bl) {
			t.Fatalf("%s: PE %d LCP length %d vs %d", label, pe, len(al), len(bl))
		}
		for i := range al {
			if al[i] != bl[i] {
				t.Fatalf("%s: PE %d LCP[%d] = %d vs %d", label, pe, i, al[i], bl[i])
			}
		}
		ao, bo := a.PEs[pe].Origins, b.PEs[pe].Origins
		if len(ao) != len(bo) {
			t.Fatalf("%s: PE %d origin length %d vs %d", label, pe, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("%s: PE %d origin[%d] = %+v vs %+v", label, pe, i, ao[i], bo[i])
			}
		}
	}
}

// TestCoresDeterminism is the intra-PE parallelism determinism suite: every
// algorithm must produce byte-identical fragments (strings, LCPs, origins)
// and bit-identical deterministic statistics — model time, bytes sent,
// messages, work — at pool widths 1, 2 and N. Width 1 is the exact
// sequential path; any divergence at a wider pool means the parallel
// decomposition changed the algorithm, not just the schedule. The second
// case gives every PE more than 2 048 received strings per merge. The
// third is the nil-head regression: runs whose FIRST string is empty must
// not be mistaken for exhausted sources (nil is the loser tree's +∞
// sentinel — see the merge.Source contract); empty strings sort first, so
// they land exactly at the heads of rank 0's runs; its PDMS runs resolve
// their origins into lines. Every run is validated (order and multiset)
// and must keep every string.
func TestCoresDeterminism(t *testing.T) {
	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	large := make([][][]byte, 4)
	for pe := range large {
		large[pe] = input.Random(5000, 24, 2, pe, len(large), int64(800+pe))
	}
	cases := []struct {
		name   string
		inputs [][][]byte
		algos  []Algorithm
		base   Config
	}{
		{"4x200", genInputs(rand.New(rand.NewSource(606)), 4, 200), Algorithms, Config{Seed: 17}},
		{"4x5000", large, []Algorithm{MS}, Config{Seed: 37}},
		{"nil-heads", [][][]byte{
			{[]byte(""), []byte("b"), []byte("")},
			{[]byte("a"), []byte(""), []byte("c")},
			{[]byte(""), []byte("")},
			{[]byte("d")},
		}, Algorithms, Config{Seed: 31}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, algo := range tc.algos {
				base := tc.base
				base.Algorithm, base.Cores, base.Validate = algo, 1, true
				want, err := Sort(tc.inputs, base)
				if err != nil {
					t.Fatalf("%v cores=1: %v", algo, err)
				}
				if got, n := len(sortOutputs(want)), len(flatten(tc.inputs)); got != n {
					t.Fatalf("%v: %d strings out, %d in", algo, got, n)
				}
				if want.Stats.Cores != 1 {
					t.Fatalf("%v: Stats.Cores = %d at width 1", algo, want.Stats.Cores)
				}
				for _, w := range widths[1:] {
					label := fmt.Sprintf("%v cores=%d", algo, w)
					cfg := base
					cfg.Cores = w
					got, err := Sort(tc.inputs, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.Stats.Cores != w {
						t.Fatalf("%s: Stats.Cores = %d", label, got.Stats.Cores)
					}
					equalFragments(t, label, want, got)
					if coreInvariant(want.Stats) != coreInvariant(got.Stats) {
						t.Fatalf("%s: statistics differ from sequential:\ncores=1: %+v\ncores=%d: %+v",
							label, want.Stats, w, got.Stats)
					}
				}
			}
		})
	}
}

// TestCoresDeterminismLargeSort crosses strsort's parallel-sort threshold
// (inputs big enough that the Step-1 chunked radix and forked multikey
// quicksort actually engage) and requires the same width invariance on the
// LCP-producing algorithm with the most seams (MS: LCP compression,
// LCP-aware merge, split-phase exchange).
func TestCoresDeterminismLargeSort(t *testing.T) {
	const p, nPerPE = 4, 5000 // ≥ strsort's parSortMin per PE
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = input.Random(nPerPE, 24, 2, pe, p, int64(700+pe))
	}
	base := Config{Algorithm: MS, Seed: 31, Cores: 1}
	want, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("cores=1: %v", err)
	}
	cfg := base
	cfg.Cores = 8
	got, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatalf("cores=8: %v", err)
	}
	equalFragments(t, "MS large", want, got)
	if coreInvariant(want.Stats) != coreInvariant(got.Stats) {
		t.Fatalf("MS large: statistics differ:\ncores=1: %+v\ncores=8: %+v",
			want.Stats, got.Stats)
	}
}
