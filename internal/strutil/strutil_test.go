package strutil

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestLCP(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 0},
		{"abc", "abd", 2},
		{"abc", "abc", 3},
		{"abc", "abcdef", 3},
		{"xyz", "abc", 0},
	}
	for _, c := range cases {
		if got := LCP([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("LCP(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareLCPAgainstBytesCompare(t *testing.T) {
	f := func(a, b []byte) bool {
		cmp, lcp := CompareLCP(a, b, 0)
		if sign(cmp) != sign(bytes.Compare(a, b)) {
			return false
		}
		return lcp == LCP(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareLCPFromOffset(t *testing.T) {
	a := []byte("prefix_aaa")
	b := []byte("prefix_aab")
	cmp, lcp := CompareLCP(a, b, 7)
	if cmp != -1 || lcp != 9 {
		t.Fatalf("got (%d,%d), want (-1,9)", cmp, lcp)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestComputeAndValidateLCPArray(t *testing.T) {
	ss := [][]byte{[]byte(""), []byte("a"), []byte("ab"), []byte("abc"), []byte("b")}
	lcps := ComputeLCPArray(ss)
	want := []int32{0, 0, 1, 2, 0}
	for i := range want {
		if lcps[i] != want[i] {
			t.Fatalf("lcp[%d] = %d, want %d", i, lcps[i], want[i])
		}
	}
	if ValidateLCPArray(ss, lcps) != -1 {
		t.Fatal("valid array rejected")
	}
	lcps[2] = 0
	if ValidateLCPArray(ss, lcps) != 2 {
		t.Fatal("invalid array accepted")
	}
}

func TestDistinguishingPrefixes(t *testing.T) {
	// From the paper: DIST(s) = max_{t≠s} LCP(s,t) + 1, capped at |s|.
	ss := [][]byte{
		[]byte("algae"), // LCP 3 with algo → DIST 4
		[]byte("algo"),  // LCP 3 with algae → DIST 4
		[]byte("alpha"), // LCP 3 with alps → DIST 4
		[]byte("alps"),  // LCP 3 with alpha → DIST 4
		[]byte("snow"),  // LCP 0 with everything → DIST 1
	}
	got := DistinguishingPrefixes(ss)
	want := []int32{4, 4, 4, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DIST(%q) = %d, want %d", ss[i], got[i], want[i])
		}
	}
}

func TestDistinguishingPrefixesDuplicatesAndPrefixes(t *testing.T) {
	ss := [][]byte{
		[]byte("dup"),   // equal to next: LCP 3, DIST capped at 3
		[]byte("dup"),   //
		[]byte("du"),    // proper prefix of dup: LCP 2, DIST capped at 2
		[]byte("other"), // LCP 0 → DIST 1
		[]byte(""),      // empty: DIST 0
	}
	got := DistinguishingPrefixes(ss)
	want := []int32{3, 3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DIST(%q) = %d, want %d (all %v)", ss[i], got[i], want[i], got)
		}
	}
}

func TestDistinguishingPrefixesSingleton(t *testing.T) {
	got := DistinguishingPrefixes([][]byte{[]byte("solo")})
	if got[0] != 1 {
		t.Fatalf("singleton DIST = %d, want 1", got[0])
	}
	got = DistinguishingPrefixes([][]byte{[]byte("")})
	if got[0] != 0 {
		t.Fatalf("empty singleton DIST = %d, want 0", got[0])
	}
}

func TestDistinguishingPrefixBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ss := make([][]byte, n)
		for i := range ss {
			l := rng.Intn(8)
			s := make([]byte, l)
			for j := range s {
				s[j] = byte('a' + rng.Intn(2))
			}
			ss[i] = s
		}
		got := DistinguishingPrefixes(ss)
		for i, s := range ss {
			maxLCP := 0
			for j, u := range ss {
				if i == j {
					continue
				}
				if h := LCP(s, u); h > maxLCP {
					maxLCP = h
				}
			}
			want := maxLCP + 1
			if n == 1 {
				want = 1
			}
			if want > len(s) {
				want = len(s)
			}
			if int(got[i]) != want {
				t.Fatalf("trial %d: DIST(%q) = %d, want %d", trial, s, got[i], want)
			}
		}
	}
}

func TestTotalDAtMostN(t *testing.T) {
	f := func(raw [][]byte) bool {
		return TotalD(raw) <= TotalLen(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultisetHashPermutationInvariant(t *testing.T) {
	f := func(raw [][]byte, seed int64) bool {
		a := slices.Clone(raw)
		b := slices.Clone(raw)
		rand.New(rand.NewSource(seed)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return MultisetHash(a) == MultisetHash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultisetHashDetectsChanges(t *testing.T) {
	a := [][]byte{[]byte("x"), []byte("y")}
	b := [][]byte{[]byte("x"), []byte("z")}
	if MultisetHash(a) == MultisetHash(b) {
		t.Fatal("different multisets hash equal")
	}
	c := [][]byte{[]byte("xy")}
	if MultisetHash(a) == MultisetHash(c) {
		t.Fatal("concatenation collision")
	}
	// "" vs missing string must differ.
	d := [][]byte{[]byte("x"), []byte("y"), []byte("")}
	if MultisetHash(a) == MultisetHash(d) {
		t.Fatal("empty string invisible to hash")
	}
}

func TestIsSortedAndMaxLen(t *testing.T) {
	ss := [][]byte{[]byte("a"), []byte("ab"), []byte("b")}
	if !IsSorted(ss) {
		t.Fatal("sorted input rejected")
	}
	ss[2] = []byte("aa")
	if IsSorted(ss) {
		t.Fatal("unsorted input accepted")
	}
	if MaxLen(ss) != 2 {
		t.Fatalf("MaxLen = %d", MaxLen(ss))
	}
	if MaxLen(nil) != 0 {
		t.Fatal("MaxLen(nil) != 0")
	}
}

func TestDistinguishingPrefixesMatchSortedNeighborComputation(t *testing.T) {
	// DIST must be computable from sorted neighbors only; this guards the
	// implementation shortcut against the O(n²) definition.
	rng := rand.New(rand.NewSource(12))
	ss := make([][]byte, 500)
	for i := range ss {
		l := 1 + rng.Intn(10)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('0' + rng.Intn(3))
		}
		ss[i] = s
	}
	got := DistinguishingPrefixes(ss)
	sorted := slices.Clone(ss)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	var d int64
	for _, v := range got {
		d += int64(v)
	}
	if d != TotalD(ss) {
		t.Fatal("TotalD inconsistent with DistinguishingPrefixes")
	}
}
