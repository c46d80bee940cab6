package strsort

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dss/internal/strutil"
)

// randStrings generates n random strings with lengths in [0, maxLen] over
// an alphabet of the given size. Small alphabets force long LCPs.
func randStrings(rng *rand.Rand, n, maxLen, sigma int) [][]byte {
	ss := make([][]byte, n)
	for i := range ss {
		l := rng.Intn(maxLen + 1)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(sigma))
		}
		ss[i] = s
	}
	return ss
}

func checkSorted(t *testing.T, ss [][]byte, lcp []int32, wantHash uint64, label string) {
	t.Helper()
	if !strutil.IsSorted(ss) {
		t.Fatalf("%s: output not sorted", label)
	}
	if strutil.MultisetHash(ss) != wantHash {
		t.Fatalf("%s: output is not a permutation of the input", label)
	}
	if lcp != nil {
		if i := strutil.ValidateLCPArray(ss, lcp); i >= 0 {
			t.Fatalf("%s: wrong LCP at index %d: got %d, strings %q | %q",
				label, i, lcp[i], ss[maxInt(i-1, 0)], ss[i])
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSortLCPSmallCases(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("")},
		{[]byte("a")},
		{[]byte(""), []byte("")},
		{[]byte("b"), []byte("a")},
		{[]byte("abc"), []byte("ab"), []byte("a"), []byte("")},
		{[]byte("same"), []byte("same"), []byte("same")},
		{[]byte("aaa"), []byte("aab"), []byte("aa"), []byte("aaaa")},
	}
	for _, in := range cases {
		ss := strutil.Clone(in)
		h := strutil.MultisetHash(ss)
		lcp, work := SortLCP(ss, nil)
		checkSorted(t, ss, lcp, h, "small")
		if len(ss) > 1 && work < 0 {
			t.Fatal("negative work")
		}
	}
}

func TestSortLCPPaperExample(t *testing.T) {
	// The twelve strings of Figure 2 of the paper.
	words := []string{
		"alpha", "order", "alps", "algae", "sorter", "snow",
		"algo", "sorbet", "sorted", "orange", "soul", "organ",
	}
	ss := make([][]byte, len(words))
	for i, w := range words {
		ss[i] = []byte(w)
	}
	h := strutil.MultisetHash(ss)
	lcp, _ := SortLCP(ss, nil)
	checkSorted(t, ss, lcp, h, "figure2")
	want := []string{
		"algae", "algo", "alpha", "alps", "orange", "order",
		"organ", "snow", "sorbet", "sorted", "sorter", "soul",
	}
	for i, w := range want {
		if string(ss[i]) != w {
			t.Fatalf("position %d: got %q, want %q", i, ss[i], w)
		}
	}
	// Figure 2 shows these LCPs after the final merge.
	wantLCP := []int32{0, 3, 2, 3, 0, 2, 2, 0, 1, 3, 5, 2}
	for i, v := range wantLCP {
		if lcp[i] != v {
			t.Fatalf("lcp[%d] = %d, want %d", i, lcp[i], v)
		}
	}
}

func TestSortLCPRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(800)
		sigma := 1 + rng.Intn(4)
		maxLen := rng.Intn(30)
		ss := randStrings(rng, n, maxLen, sigma)
		ref := strutil.Clone(ss)
		sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })
		h := strutil.MultisetHash(ss)
		lcp, _ := SortLCP(ss, nil)
		checkSorted(t, ss, lcp, h, "random")
		for i := range ref {
			if !bytes.Equal(ss[i], ref[i]) {
				t.Fatalf("trial %d: position %d: got %q, want %q", trial, i, ss[i], ref[i])
			}
		}
	}
}

func TestSortLCPLargeTriggersRadixPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Big enough that multiple radix levels are used (shared prefixes).
	n := 20000
	ss := make([][]byte, n)
	for i := range ss {
		s := append([]byte("commonprefix"), byte('a'+rng.Intn(3)), byte('a'+rng.Intn(3)), byte('a'+rng.Intn(26)))
		ss[i] = s
	}
	h := strutil.MultisetHash(ss)
	lcp, work := SortLCP(ss, nil)
	checkSorted(t, ss, lcp, h, "radix")
	if work == 0 {
		t.Fatal("radix path reported no work")
	}
}

func TestSortSatellitePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(500)
		ss := randStrings(rng, n, 12, 2)
		orig := strutil.Clone(ss)
		sat := make([]uint64, n)
		for i := range sat {
			sat[i] = uint64(i)
		}
		lcp, _ := SortLCP(ss, sat)
		checkSorted(t, ss, lcp, strutil.MultisetHash(orig), "satellite")
		// Each satellite value must point back at an equal original string.
		seen := make([]bool, n)
		for i, u := range sat {
			if u >= uint64(n) || seen[u] {
				t.Fatalf("satellite not a permutation: %v", sat)
			}
			seen[u] = true
			if !bytes.Equal(ss[i], orig[u]) {
				t.Fatalf("satellite %d points at %q but output is %q", u, orig[u], ss[i])
			}
		}
	}
}

func TestSortNoLCP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		ss := randStrings(rng, rng.Intn(600), 20, 3)
		h := strutil.MultisetHash(ss)
		Sort(ss, nil)
		checkSorted(t, ss, nil, h, "plain")
	}
}

func TestSortQuickProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		ss := strutil.Clone(raw)
		h := strutil.MultisetHash(ss)
		lcp, _ := SortLCP(ss, nil)
		return strutil.IsSorted(ss) &&
			strutil.MultisetHash(ss) == h &&
			strutil.ValidateLCPArray(ss, lcp) < 0
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSortAllEqualStrings(t *testing.T) {
	// Heavy duplicates exercise the end bucket of the radix sort and the
	// equal partition of multikey quicksort.
	for _, n := range []int{2, 100, 5000} {
		ss := make([][]byte, n)
		for i := range ss {
			ss[i] = []byte("duplicate")
		}
		lcp, _ := SortLCP(ss, nil)
		for i := 1; i < n; i++ {
			if lcp[i] != int32(len("duplicate")) {
				t.Fatalf("n=%d: lcp[%d] = %d", n, i, lcp[i])
			}
		}
	}
}

func TestSortPrefixChains(t *testing.T) {
	// a, aa, aaa, ... tests end-of-string ordering at every depth.
	n := 300
	ss := make([][]byte, n)
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for i, p := range perm {
		ss[i] = bytes.Repeat([]byte("a"), p)
	}
	h := strutil.MultisetHash(ss)
	lcp, _ := SortLCP(ss, nil)
	checkSorted(t, ss, lcp, h, "chain")
	for i := 0; i < n; i++ {
		if len(ss[i]) != i {
			t.Fatalf("position %d has length %d", i, len(ss[i]))
		}
		if i > 0 && lcp[i] != int32(i-1) {
			t.Fatalf("lcp[%d] = %d, want %d", i, lcp[i], i-1)
		}
	}
}

func TestWorkIsLinearishInD(t *testing.T) {
	// Sorting strings with a long shared prefix must not inspect the
	// shared prefix more than a small constant number of times per string.
	prefixLen := 1000
	n := 256
	prefix := bytes.Repeat([]byte("p"), prefixLen)
	ss := make([][]byte, n)
	for i := range ss {
		ss[i] = append(append([]byte{}, prefix...), byte(i))
	}
	rand.New(rand.NewSource(6)).Shuffle(n, func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	_, work := SortLCP(ss, nil)
	d := strutil.TotalD(ss)
	if work > 8*d {
		t.Fatalf("work %d exceeds 8×D = %d: shared prefixes re-inspected too often", work, 8*d)
	}
}

func TestSorterReuse(t *testing.T) {
	st := &Sorter{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		ss := randStrings(rng, 400, 15, 2)
		h := strutil.MultisetHash(ss)
		lcp := st.SortLCPInto(ss, nil, nil)
		checkSorted(t, ss, lcp, h, "reuse")
	}
	if st.Work() == 0 {
		t.Fatal("no work accumulated across reuses")
	}
}

func BenchmarkSortLCPRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ss := randStrings(rng, 100000, 20, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := make([][]byte, len(ss))
		copy(in, ss)
		b.StartTimer()
		SortLCP(in, nil)
	}
}

func BenchmarkSortLCPCommonPrefix(b *testing.B) {
	prefix := bytes.Repeat([]byte("w"), 40)
	rng := rand.New(rand.NewSource(9))
	ss := make([][]byte, 50000)
	for i := range ss {
		ss[i] = append(append([]byte{}, prefix...), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := make([][]byte, len(ss))
		copy(in, ss)
		b.StartTimer()
		SortLCP(in, nil)
	}
}

func BenchmarkRadixSortHeavyDuplicates(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	vals := randStrings(rng, 20, 30, 26)
	ss := make([][]byte, 100000)
	for i := range ss {
		ss[i] = vals[rng.Intn(len(vals))]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := make([][]byte, len(ss))
		copy(in, ss)
		b.StartTimer()
		SortLCP(in, nil)
	}
}
