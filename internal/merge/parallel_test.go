package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/par"
)

// genSeqs builds k sorted runs with LCP arrays (and optional satellites)
// from a shared small alphabet, so equal strings and deep shared prefixes
// are common.
func genSeqs(rng *rand.Rand, k, maxLen int, sats bool) []Sequence {
	vocab := []string{"", "a", "ab", "abc", "abcd", "ax", "b", "ba", "bab", "c", "ca", "cab"}
	seqs := make([]Sequence, k)
	for q := 0; q < k; q++ {
		n := rng.Intn(maxLen + 1)
		strs := make([][]byte, n)
		for i := range strs {
			strs[i] = []byte(vocab[rng.Intn(len(vocab))])
		}
		sortRun(strs)
		seqs[q] = seqFromStrings(strs, sats, uint64(q))
	}
	return seqs
}

func sortRun(strs [][]byte) {
	for i := 1; i < len(strs); i++ {
		for j := i; j > 0 && bytes.Compare(strs[j], strs[j-1]) < 0; j-- {
			strs[j], strs[j-1] = strs[j-1], strs[j]
		}
	}
}

func seqFromStrings(strs [][]byte, sats bool, tag uint64) Sequence {
	s := Sequence{Strings: strs, LCPs: make([]int32, len(strs))}
	for i := 1; i < len(strs); i++ {
		l := 0
		for l < len(strs[i-1]) && l < len(strs[i]) && strs[i-1][l] == strs[i][l] {
			l++
		}
		s.LCPs[i] = int32(l)
	}
	if sats {
		s.Sats = make([]uint64, len(strs))
		for i := range s.Sats {
			s.Sats[i] = tag<<32 | uint64(i)
		}
	}
	return s
}

func requireEqualMerge(t *testing.T, label string, want, got Sequence, wantWork, gotWork int64) {
	t.Helper()
	if len(got.Strings) != len(want.Strings) {
		t.Fatalf("%s: %d strings, want %d", label, len(got.Strings), len(want.Strings))
	}
	for i := range want.Strings {
		if !bytes.Equal(got.Strings[i], want.Strings[i]) {
			t.Fatalf("%s: string %d = %q, want %q", label, i, got.Strings[i], want.Strings[i])
		}
	}
	if (got.LCPs == nil) != (want.LCPs == nil) || len(got.LCPs) != len(want.LCPs) {
		t.Fatalf("%s: LCP shape mismatch: got %d (nil=%v) want %d (nil=%v)",
			label, len(got.LCPs), got.LCPs == nil, len(want.LCPs), want.LCPs == nil)
	}
	for i := range want.LCPs {
		if got.LCPs[i] != want.LCPs[i] {
			t.Fatalf("%s: LCP %d = %d, want %d", label, i, got.LCPs[i], want.LCPs[i])
		}
	}
	if (got.Sats == nil) != (want.Sats == nil) || len(got.Sats) != len(want.Sats) {
		t.Fatalf("%s: satellite shape mismatch", label)
	}
	for i := range want.Sats {
		if got.Sats[i] != want.Sats[i] {
			t.Fatalf("%s: satellite %d = %d, want %d", label, i, got.Sats[i], want.Sats[i])
		}
	}
	if gotWork != wantWork {
		t.Fatalf("%s: work = %d, want %d", label, gotWork, wantWork)
	}
}

// TestMergeParMatchesSequential pins the tentpole contract: at every pool
// width the partitioned merge reproduces the sequential merge's strings,
// LCP array, satellites and character work exactly. ParMin=1 forces the
// partitioned path even on tiny inputs.
func TestMergeParMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	widths := []int{1, 2, 3, 4, 8}
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		sats := trial%3 == 0
		seqs := genSeqs(rng, k, 40, sats)
		for _, useLCP := range []bool{false, true} {
			want, wantWork, _ := Merge(nil, seqs, Options{LCP: useLCP})
			for _, width := range widths {
				got, gotWork, _ := Merge(par.New(width), seqs, Options{LCP: useLCP, ParMin: 1})
				label := fmt.Sprintf("trial=%d k=%d lcp=%v sats=%v width=%d", trial, k, useLCP, sats, width)
				requireEqualMerge(t, label, want, got, wantWork, gotWork)
			}
		}
	}
}

// TestMergeParDisabled checks the threshold gates: negative ParMin always
// runs sequentially, and inputs below the threshold do too (result still
// identical, busy = 0 because the pool is never engaged).
func TestMergeParDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seqs := genSeqs(rng, 5, 30, false)
	want, wantWork := MergeLCP(seqs)
	pool := par.New(4)

	got, work, busy := Merge(pool, seqs, Options{LCP: true, ParMin: -1})
	requireEqualMerge(t, "ParMin<0", want, got, wantWork, work)
	if busy != 0 {
		t.Fatalf("ParMin<0: busy = %d, want 0", busy)
	}

	got, work, busy = Merge(pool, seqs, Options{LCP: true, ParMin: 1 << 20})
	requireEqualMerge(t, "below threshold", want, got, wantWork, work)
	if busy != 0 {
		t.Fatalf("below threshold: busy = %d, want 0", busy)
	}
}

// FuzzMergeParallelEquivalence feeds arbitrary byte soup through the
// sequential merge, the partitioned merge at widths 1/2/3/8 and the sink
// merge, and requires identical strings, LCPs, satellites and work from
// all of them.
func FuzzMergeParallelEquivalence(f *testing.F) {
	f.Add([]byte("ab\x00abc\x01b\x02"), uint8(3))
	f.Add([]byte("\x00\x00\x01aaaa\x02aaab"), uint8(5))
	f.Add([]byte("x"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := 1 + int(kRaw)%9
		// Deterministically slice data into k sorted runs.
		runs := make([][][]byte, k)
		for i, b := range data {
			q := int(b+byte(i)) % k
			runs[q] = append(runs[q], data[i:i+min(len(data)-i, 1+int(b)%7)])
		}
		seqs := make([]Sequence, k)
		for q := range runs {
			sortRun(runs[q])
			seqs[q] = seqFromStrings(runs[q], true, uint64(q))
		}
		for _, useLCP := range []bool{false, true} {
			want, wantWork, _ := Merge(nil, seqs, Options{LCP: useLCP})
			for _, width := range []int{1, 2, 3, 8} {
				got, gotWork, _ := Merge(par.New(width), seqs, Options{LCP: useLCP, ParMin: 1})
				label := fmt.Sprintf("pool lcp=%v width=%d", useLCP, width)
				requireEqualMerge(t, label, want, got, wantWork, gotWork)
			}
			var got Sequence
			_, gotWork, err := MergeSink(sliceSources(seqs), useLCP, collectSink(&got, useLCP, true))
			if err != nil {
				t.Fatal(err)
			}
			requireEqualMerge(t, fmt.Sprintf("sink lcp=%v", useLCP), want, got, wantWork, gotWork)
		}
	})
}
