package strsort

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dss/internal/input"
	"dss/internal/par"
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
		ss := slices.Clone(in)
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
		ref := slices.Clone(ss)
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
		orig := slices.Clone(ss)
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
		ss := slices.Clone(raw)
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

// TestSorterReuse sorts inputs of similar sizes back to back, with and
// without LCP output, so that no state a sort leaves behind can leak into
// the next one.
func TestSorterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var total int64
	for _, n := range []int{511, 400, 300, 511, 257} {
		ss := randStrings(rng, n, 15, 2)
		h := strutil.MultisetHash(ss)
		lcp, work := SortLCP(ss, nil)
		checkSorted(t, ss, lcp, h, "reuse")
		h = strutil.MultisetHash(ss)
		rng.Shuffle(n, func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
		work += Sort(ss, nil)
		checkSorted(t, ss, nil, h, "reuse, no LCP")
		total += work
	}
	if total == 0 {
		t.Fatal("no work reported across reuses")
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

// ---- Golden constants: the kernel's observable behaviour, pinned ----------
//
// For a fixed list of generated inputs the work total and an FNV-1a hash of
// (permuted satellites, LCP array) are recorded as constants, taken from the
// header-moving kernel this package started with. Any kernel must reproduce
// every one of them through all four entry points and at every pool width:
// that is what makes a kernel swap an implementation change rather than a
// re-baseline of the model statistics. Regenerate (only for an announced
// re-baseline) with: go test ./internal/strsort -run TestGolden -print-golden

var printGolden = flag.Bool("print-golden", false, "print the golden table instead of checking it")

type goldenCase struct {
	name     string
	gen      func() [][]byte
	lcpWork  int64  // SortLCP / ParallelSortLCP characters inspected
	lcpHash  uint64 // FNV-1a of (permuted satellites, LCP array)
	sortWork int64  // Sort / ParallelSort characters inspected
	sortHash uint64 // FNV-1a of the permuted satellites
}

// lengthsBetween draws n strings over a 3-letter alphabet (plus 0x00 and
// 0xFF) with lengths in [lo, hi]: straddling the kernel's cached window.
func lengthsBetween(seed int64, n, lo, hi int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte{0x00, 'a', 'b', 'c', 0xFF}
	ss := make([][]byte, n)
	for i := range ss {
		s := make([]byte, lo+rng.Intn(hi-lo+1))
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		ss[i] = s
	}
	return ss
}

var goldenCases = []goldenCase{
	{name: "cc50k", gen: func() [][]byte {
		return input.CommonCrawlLike(input.CCConfig{LinesPerPE: 50000, Seed: 1}, 0, 1)
	}, lcpWork: 2123314, lcpHash: 0xf7b838c86ce8a4c5, sortWork: 1727631, sortHash: 0x8491ea2c35a7bdd},
	{name: "dn-ratio0", gen: func() [][]byte {
		return shuffled(11, input.DN(input.DNConfig{StringsPerPE: 20000, Length: 100, Ratio: 0}, 0, 1))
	}, lcpWork: 169259, lcpHash: 0x154dc713710c7ad5, sortWork: 283417, sortHash: 0xf1f5149ea4dd76d5},
	{name: "dn-ratio0.25", gen: func() [][]byte {
		return shuffled(12, input.DN(input.DNConfig{StringsPerPE: 20000, Length: 100, Ratio: 0.25}, 0, 1))
	}, lcpWork: 648522, lcpHash: 0x7d235870dad2617d, sortWork: 779279, sortHash: 0x32cf17fcad8cf2c5},
	{name: "dn-ratio1", gen: func() [][]byte {
		return shuffled(13, input.DN(input.DNConfig{StringsPerPE: 20000, Length: 100, Ratio: 1}, 0, 1))
	}, lcpWork: 2089100, lcpHash: 0x2ac233ff690d879d, sortWork: 2202696, sortHash: 0xcf5240991195ea7d},
	{name: "dnareads", gen: func() [][]byte {
		return input.DNAReads(input.DNAConfig{ReadsPerPE: 20000, Seed: 1}, 0, 1)
	}, lcpWork: 965831, lcpHash: 0xe3d92aa860052036, sortWork: 657615, sortHash: 0xfaa65502288665a5},
	{name: "all-equal", gen: func() [][]byte {
		ss := make([][]byte, 10000)
		for i := range ss {
			ss[i] = []byte("duplicate-line")
		}
		return ss
	}, lcpWork: 150000, lcpHash: 0x9a0ce5cc84cd564b, sortWork: 150000, sortHash: 0x6b2550cdd2d22645},
	{name: "prefix-chain", gen: func() [][]byte {
		ss := make([][]byte, 5000)
		for i := range ss {
			ss[i] = bytes.Repeat([]byte("a"), i/2) // every length twice
		}
		return shuffled(14, ss)
	}, lcpWork: 6256632, lcpHash: 0xd97973b1fe201e29, sortWork: 6255158, sortHash: 0xc0daff3128679c05},
	{name: "mostly-empty", gen: func() [][]byte {
		ss := lengthsBetween(15, 10000, 0, 3)
		for i := range ss {
			if i%3 != 0 {
				ss[i] = nil
			}
		}
		return ss
	}, lcpWork: 19374, lcpHash: 0x7e8b97507f323993, sortWork: 32169, sortHash: 0x32236dd78085e3fd},
	{name: "nul-and-ff", gen: func() [][]byte { return lengthsBetween(16, 20000, 0, 24) },
		lcpWork: 213099, lcpHash: 0xc1702e22308c5cef, sortWork: 276830, sortHash: 0xb866aabeca971075},
	{name: "len6-9", gen: func() [][]byte { return lengthsBetween(17, 20000, 6, 9) },
		lcpWork: 250589, lcpHash: 0xbe7a527d755f0ccf, sortWork: 317149, sortHash: 0x2fbf9bf1f41c4f65},
	{name: "len14-17", gen: func() [][]byte { return lengthsBetween(18, 20000, 14, 17) },
		lcpWork: 253291, lcpHash: 0x6d5cdb179ddc564e, sortWork: 310983, sortHash: 0x874a881a73da6a05},
	{name: "window-ends", gen: windowEnds,
		lcpWork: 449324, lcpHash: 0xadcb8c78b547ed60, sortWork: 515088, sortHash: 0xe9eccde770079eed},
	{name: "nul-tails", gen: nulTails,
		lcpWork: 233141, lcpHash: 0x35e2a1e30da46cf, sortWork: 314136, sortHash: 0x90c7041d57bb9a69},
	{name: "late-mismatch", gen: lateMismatch,
		lcpWork: 1505011, lcpHash: 0x8a96419bc6848d81, sortWork: 1505011, sortHash: 0xf6fba6c35e020cdc},
	{name: "prefix60", gen: func() [][]byte { return sharedPrefix(12000, 60) },
		lcpWork: 800617, lcpHash: 0xa998079f91b79005, sortWork: 877239, sortHash: 0x90bbe2d3a3d09e51},
	{name: "prefix300", gen: func() [][]byte { return sharedPrefix(5000, 300) },
		lcpWork: 1525150, lcpHash: 0x2f0b5ae0468d53e, sortWork: 1557178, sortHash: 0xde22f4ff6aa85165},
}

// windowEnds is 20 000 strings whose shared prefixes end exactly at the
// cached windows' ends: each is the first 7, 14 or 21 characters of one
// prefix followed by 0–11 digits, so the subproblems share 7, then 14, then
// 21 characters, and every twelfth string ends exactly there.
func windowEnds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	prefix := "abcdefghijklmnopqrstu"
	ss := make([][]byte, 20000)
	for i := range ss {
		s := []byte(prefix[:7*(1+rng.Intn(3))])
		for range rng.Intn(12) {
			s = append(s, byte('0'+rng.Intn(10)))
		}
		ss[i] = s
	}
	return ss
}

// nulTails is 20 000 nine-digit numbers, few of them distinct, each
// followed by zero to three 0x00 bytes: a string and the same string plus
// "\x00" end inside one cached window, where only the window's string-end
// count tells them apart ("000000010" sorts before "000000010\x00").
func nulTails() [][]byte {
	rng := rand.New(rand.NewSource(23))
	ss := make([][]byte, 20000)
	for i := range ss {
		s := []byte(fmt.Sprintf("%09d", rng.Intn(40)))
		ss[i] = append(s, make([]byte, rng.Intn(4))...)
	}
	return ss
}

// lateMismatch is 5 000 copies of one 300-byte line, then one string that
// differs from it at byte 10: the one string that ends the subproblem's
// shared prefix comes last.
func lateMismatch() [][]byte {
	line := lengthsBetween(20, 1, 300, 300)[0]
	ss := make([][]byte, 5001)
	for i := range ss {
		ss[i] = bytes.Clone(line)
	}
	ss[len(ss)-1][10] ^= 0x80
	return ss
}

// sharedPrefix is n strings with one random prefix of length plen and 0–20
// random letters after it. With n above parSortMin the pool's sorters meet
// the shared prefix too; 60 characters end inside the first probe of
// commonPrefix's scan, 300 take three.
func sharedPrefix(n, plen int) [][]byte {
	rng := rand.New(rand.NewSource(21))
	prefix := lengthsBetween(22, 1, plen, plen)[0]
	ss := make([][]byte, n)
	for i := range ss {
		s := bytes.Clone(prefix)
		for range rng.Intn(21) {
			s = append(s, byte('a'+rng.Intn(26)))
		}
		ss[i] = s
	}
	return ss
}

func shuffled(seed int64, ss [][]byte) [][]byte {
	rand.New(rand.NewSource(seed)).Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	return ss
}

// sorted is the result of one entry point on one input.
type sorted struct {
	ss   [][]byte
	sat  []uint64
	lcp  []int32
	work int64
}

// runEntry sorts in through one of the four entry points: a copy in place
// when cores is 0, on a pool of that width otherwise. A pool entry point
// returns the order, the permutation the satellites carry: with withSat
// the result's sat column is that order, and its strings are gathered
// through it either way.
func runEntry(in [][]byte, withSat, withLCP bool, cores int) sorted {
	if cores > 0 {
		var order []uint32
		var r sorted
		if withLCP {
			order, r.lcp, r.work, _ = ParallelSortLCP(par.New(cores), in, nil)
		} else {
			order, r.work, _ = ParallelSort(par.New(cores), in)
		}
		r.ss = strutil.Set{Strings: in, Order: order}.Gather()
		if withSat {
			r.sat = make([]uint64, len(order))
			for i, k := range order {
				r.sat[i] = uint64(k)
			}
		}
		return r
	}
	r := sorted{ss: make([][]byte, len(in))}
	copy(r.ss, in)
	if withSat {
		r.sat = make([]uint64, len(in))
		for i := range r.sat {
			r.sat[i] = uint64(i)
		}
	}
	if withLCP {
		r.lcp, r.work = SortLCP(r.ss, r.sat)
	} else {
		r.work = Sort(r.ss, r.sat)
	}
	return r
}

func (r sorted) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, u := range r.sat {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, v := range r.lcp {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	return h.Sum64()
}

func TestGoldenKernelBehaviour(t *testing.T) {
	for _, gc := range goldenCases {
		in := gc.gen()
		if *printGolden {
			l, s := runEntry(in, true, true, 0), runEntry(in, true, false, 0)
			fmt.Printf("%s: lcpWork: %d, lcpHash: %#x, sortWork: %d, sortHash: %#x},\n",
				gc.name, l.work, l.hash(), s.work, s.hash())
			continue
		}
		for _, withLCP := range []bool{true, false} {
			wantWork, wantHash := gc.sortWork, gc.sortHash
			if withLCP {
				wantWork, wantHash = gc.lcpWork, gc.lcpHash
			}
			var ref sorted // the sequential run with satellites
			for _, cores := range []int{0, 1, 2, 4} {
				for _, withSat := range []bool{true, false} {
					label := fmt.Sprintf("%s lcp=%v cores=%d sat=%v", gc.name, withLCP, cores, withSat)
					r := runEntry(in, withSat, withLCP, cores)
					if r.work != wantWork {
						t.Errorf("%s: work %d, golden %d", label, r.work, wantWork)
					}
					if withSat {
						if got := r.hash(); got != wantHash {
							t.Errorf("%s: hash %#x, golden %#x", label, got, wantHash)
						}
						for i, u := range r.sat {
							if !bytes.Equal(r.ss[i], in[u]) {
								t.Fatalf("%s: satellite %d does not belong to output string %d", label, u, i)
							}
						}
						if ref.ss == nil {
							ref = r
						}
						continue
					}
					// Without satellites the permutation shows only in the
					// strings: they and the LCPs must match the pinned run.
					for i := range r.ss {
						if !bytes.Equal(r.ss[i], ref.ss[i]) || (withLCP && r.lcp[i] != ref.lcp[i]) {
							t.Fatalf("%s: diverges from the satellite run at %d", label, i)
						}
					}
				}
			}
		}
	}
}

// sink keeps the benchmarked calls' results alive.
var sink int64

// BenchmarkSortLCP is the package's rung on the repository benchmark's own
// inputs — one PE's share (p = 4) of each workload, in shuffled file order —
// and on three shapes the kernel handles specially: a long prefix shared by
// every string, a few values repeated many times, and lateMismatch. Each
// runs sequentially and on the width-2 pool the benchmark host gives a PE.
// Mchars/s is billed work per second, the unit of the harness's
// strsort.mchars_per_s.
func BenchmarkSortLCP(b *testing.B) {
	inputs := []struct {
		name string
		gen  func() [][]byte
	}{
		{"cc500k", func() [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: 500000, Seed: 1}, 0, 4)
		}},
		{"dn125kx200r025", func() [][]byte {
			return input.DN(input.DNConfig{StringsPerPE: 125000, Length: 200, Ratio: 0.25}, 0, 4)
		}},
		{"dn75kx500r0", func() [][]byte {
			return input.DN(input.DNConfig{StringsPerPE: 75000, Length: 500, Ratio: 0}, 0, 4)
		}},
		{"prefix40x50k", func() [][]byte {
			prefix := bytes.Repeat([]byte("w"), 40)
			rng := rand.New(rand.NewSource(9))
			ss := make([][]byte, 50000)
			for i := range ss {
				ss[i] = append(bytes.Clone(prefix), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			return ss
		}},
		{"dups20x100k", func() [][]byte {
			rng := rand.New(rand.NewSource(37))
			vals := randStrings(rng, 20, 30, 26)
			ss := make([][]byte, 100000)
			for i := range ss {
				ss[i] = vals[rng.Intn(len(vals))]
			}
			return ss
		}},
		{"latemismatch", lateMismatch},
	}
	for _, in := range inputs {
		// The input is built inside its own b.Run, so that a -bench filter
		// that skips it skips its generator too.
		b.Run(in.name, func(b *testing.B) {
			ss := shuffled(1, in.gen())
			for _, cores := range []int{1, 2} {
				b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
					pool := par.New(cores)
					b.ReportAllocs()
					b.SetBytes(strutil.TotalLen(ss))
					var chars int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, _, w, _ := ParallelSortLCP(pool, ss, nil)
						chars += w
					}
					sink += chars
					b.ReportMetric(float64(chars)/b.Elapsed().Seconds()/1e6, "Mchars/s")
				})
			}
		})
	}
}

// TestStringCountLimit lowers the proxy index limit and checks that every
// entry point refuses a longer array by name and number, rather than
// sorting it through truncated indices.
func TestStringCountLimit(t *testing.T) {
	defer func(old int64) { maxStrings = old }(maxStrings)
	maxStrings = 3
	ss := [][]byte{[]byte("d"), []byte("c"), []byte("b"), []byte("a")}
	entries := map[string]func(){
		"SortLCP":         func() { SortLCP(ss, nil) },
		"Sort":            func() { Sort(ss, nil) },
		"ParallelSortLCP": func() { ParallelSortLCP(par.New(2), ss, nil) },
		"ParallelSort":    func() { ParallelSort(par.New(2), ss) },
	}
	for name, call := range entries {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "strsort: 4 strings") || !strings.Contains(msg, "limit is 3") {
					t.Errorf("%s: got %q, want the string-count limit panic", name, msg)
				}
			}()
			call()
		}()
		if string(ss[0]) != "d" {
			t.Fatalf("%s: refused input was modified", name)
		}
	}
	Sort(ss[:3], nil) // at the limit is fine
	if string(ss[0]) != "b" {
		t.Fatalf("sorting exactly maxStrings strings: got %q first", ss[0])
	}
}
