package merge

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dss/internal/strsort"
	"dss/internal/strutil"
)

// makeRuns splits random strings into k sorted runs with LCP arrays.
func makeRuns(rng *rand.Rand, k, total, maxLen, sigma int) ([]Sequence, [][]byte) {
	all := make([][]byte, total)
	for i := range all {
		l := rng.Intn(maxLen + 1)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(sigma))
		}
		all[i] = s
	}
	seqs := make([]Sequence, k)
	for i, s := range all {
		r := rng.Intn(k)
		seqs[r].Strings = append(seqs[r].Strings, s)
		_ = i
	}
	for r := range seqs {
		lcp, _ := strsort.SortLCP(seqs[r].Strings, nil)
		seqs[r].LCPs = lcp
	}
	ref := strutil.Clone(all)
	sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })
	return seqs, ref
}

// mergePlain is the sequential merge on the plain (non-LCP) loser tree.
func mergePlain(seqs []Sequence) (Sequence, int64) {
	return Merge(seqs, false)
}

func TestMergeLCPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(9)
		total := rng.Intn(500)
		seqs, ref := makeRuns(rng, k, total, 15, 2)
		out, _ := MergeLCP(seqs)
		if out.Len() != len(ref) {
			t.Fatalf("trial %d: merged %d strings, want %d", trial, out.Len(), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(out.Strings[i], ref[i]) {
				t.Fatalf("trial %d: position %d: got %q, want %q", trial, i, out.Strings[i], ref[i])
			}
		}
		if i := strutil.ValidateLCPArray(out.Strings, out.LCPs); i >= 0 {
			t.Fatalf("trial %d: wrong output LCP at %d", trial, i)
		}
	}
}

func TestMergePlainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(6)
		seqs, ref := makeRuns(rng, k, rng.Intn(400), 10, 3)
		out, _ := mergePlain(seqs)
		for i := range ref {
			if !bytes.Equal(out.Strings[i], ref[i]) {
				t.Fatalf("trial %d: position %d mismatch", trial, i)
			}
		}
		if out.LCPs != nil {
			t.Fatal("plain merge must not output LCPs")
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	// No sequences.
	out, _ := MergeLCP(nil)
	if out.Len() != 0 {
		t.Fatal("empty merge produced output")
	}
	// All empty sequences.
	out, _ = MergeLCP([]Sequence{{}, {}, {}})
	if out.Len() != 0 {
		t.Fatal("empty sequences produced output")
	}
	// Single stream passes through.
	ss := [][]byte{[]byte("a"), []byte("ab"), []byte("b")}
	lcp := strutil.ComputeLCPArray(ss)
	out, work := MergeLCP([]Sequence{{}, {Strings: ss, LCPs: lcp}, {}})
	if out.Len() != 3 || work != 0 {
		t.Fatalf("single stream: len=%d work=%d", out.Len(), work)
	}
	if i := strutil.ValidateLCPArray(out.Strings, out.LCPs); i >= 0 {
		t.Fatalf("single stream LCP wrong at %d", i)
	}
}

func TestMergeWithEmptyStringsAndDuplicates(t *testing.T) {
	a := [][]byte{[]byte(""), []byte(""), []byte("x")}
	b := [][]byte{[]byte(""), []byte("x"), []byte("x")}
	seqs := []Sequence{
		{Strings: a, LCPs: strutil.ComputeLCPArray(a)},
		{Strings: b, LCPs: strutil.ComputeLCPArray(b)},
	}
	out, _ := MergeLCP(seqs)
	want := []string{"", "", "", "x", "x", "x"}
	for i, w := range want {
		if string(out.Strings[i]) != w {
			t.Fatalf("position %d: %q", i, out.Strings[i])
		}
	}
	if i := strutil.ValidateLCPArray(out.Strings, out.LCPs); i >= 0 {
		t.Fatalf("LCP wrong at %d", i)
	}
}

func TestMergeStableByRunIndex(t *testing.T) {
	// Equal strings must come out ordered by input run index (origin PE).
	a := [][]byte{[]byte("dup")}
	b := [][]byte{[]byte("dup")}
	c := [][]byte{[]byte("dup")}
	seqs := []Sequence{
		{Strings: a, LCPs: []int32{0}, Sats: []uint64{0}},
		{Strings: b, LCPs: []int32{0}, Sats: []uint64{1}},
		{Strings: c, LCPs: []int32{0}, Sats: []uint64{2}},
	}
	out, _ := MergeLCP(seqs)
	for i := 0; i < 3; i++ {
		if out.Sats[i] != uint64(i) {
			t.Fatalf("stability violated: sats = %v", out.Sats)
		}
	}
}

func TestMergeSatellites(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seqs, _ := makeRuns(rng, 4, 200, 8, 2)
	// Tag every string with a unique satellite.
	id := uint64(0)
	type pair struct {
		s   string
		sat uint64
	}
	var want []pair
	for r := range seqs {
		seqs[r].Sats = make([]uint64, seqs[r].Len())
		for i := range seqs[r].Sats {
			seqs[r].Sats[i] = id
			want = append(want, pair{string(seqs[r].Strings[i]), id})
			id++
		}
	}
	out, _ := MergeLCP(seqs)
	if len(out.Sats) != out.Len() {
		t.Fatal("satellite output length mismatch")
	}
	// Every (string, sat) pair must be preserved.
	got := map[uint64]string{}
	for i := range out.Sats {
		got[out.Sats[i]] = string(out.Strings[i])
	}
	for _, p := range want {
		if got[p.sat] != p.s {
			t.Fatalf("satellite %d carries %q, want %q", p.sat, got[p.sat], p.s)
		}
	}
}

func TestMergeLCPWorkBound(t *testing.T) {
	// The LCP merge of m strings from K runs must use at most
	// m·(log K + 1) + ΔL character comparisons (Section II-B). We check a
	// looser constant to avoid brittleness.
	rng := rand.New(rand.NewSource(24))
	k, total := 8, 4000
	seqs, _ := makeRuns(rng, k, total, 40, 2)
	var deltaL int64
	out, work := MergeLCP(seqs)
	for i := range out.LCPs {
		deltaL += int64(out.LCPs[i])
	}
	bound := int64(total)*(4+1) + 4*deltaL // log2(8)=3, slack
	if work > bound {
		t.Fatalf("LCP merge work %d exceeds bound %d (ΔL=%d)", work, bound, deltaL)
	}
	// And it must be far below the naive full-comparison cost when LCPs
	// are long.
	_, plainWork := mergePlain(seqs)
	if work > plainWork {
		t.Fatalf("LCP merge (%d) did more character work than plain merge (%d)", work, plainWork)
	}
}

func TestMergeManyRuns(t *testing.T) {
	// K larger than any power-of-two boundary nearby, with ragged sizes.
	rng := rand.New(rand.NewSource(25))
	for _, k := range []int{1, 2, 3, 5, 17, 33} {
		seqs, ref := makeRuns(rng, k, 300, 6, 2)
		out, _ := MergeLCP(seqs)
		for i := range ref {
			if !bytes.Equal(out.Strings[i], ref[i]) {
				t.Fatalf("k=%d: position %d mismatch", k, i)
			}
		}
	}
}

func BenchmarkMergeLCP8Runs(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	seqs, _ := makeRuns(rng, 8, 100000, 30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeLCP(seqs)
	}
}

func BenchmarkMergePlain8Runs(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	seqs, _ := makeRuns(rng, 8, 100000, 30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergePlain(seqs)
	}
}
