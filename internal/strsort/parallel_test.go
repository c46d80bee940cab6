package strsort

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"dss/internal/input"
	"dss/internal/par"
	"dss/internal/strutil"
)

// randomStrings builds an input mix that exercises every kernel layer:
// shared prefixes (deep radix recursion), duplicates (equal partitions and
// bucket-0 end-of-string handling), and a skewed alphabet.
func randomStrings(rng *rand.Rand, n int) [][]byte {
	prefixes := [][]byte{{}, []byte("pre"), []byte("prefix-shared-"), []byte("prefix-shared-deep/")}
	ss := make([][]byte, n)
	for i := range ss {
		p := prefixes[rng.Intn(len(prefixes))]
		l := rng.Intn(20)
		s := make([]byte, len(p)+l)
		copy(s, p)
		for j := len(p); j < len(s); j++ {
			s[j] = byte('a' + rng.Intn(4))
		}
		ss[i] = s
	}
	// Sprinkle exact duplicates.
	for i := 0; i < n/10; i++ {
		ss[rng.Intn(n)] = ss[rng.Intn(n)]
	}
	return ss
}

func cloneInput(ss [][]byte) ([][]byte, []uint64) {
	cp := make([][]byte, len(ss))
	copy(cp, ss)
	sat := make([]uint64, len(ss))
	for i := range sat {
		sat[i] = uint64(i)
	}
	return cp, sat
}

// checkOracle compares a sorter's output with an oracle that shares no code
// with it: sort.SliceStable under bytes.Compare for the order,
// strutil.ComputeLCPArray for the LCPs.
func checkOracle(t *testing.T, in, got [][]byte, gotLCP []int32) {
	t.Helper()
	want := make([][]byte, len(in))
	copy(want, in)
	sort.SliceStable(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	wantLCP := strutil.ComputeLCPArray(want)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("position %d: got %q, oracle %q", i, got[i], want[i])
		}
		if gotLCP != nil && gotLCP[i] != wantLCP[i] {
			t.Fatalf("lcp[%d] = %d, oracle %d", i, gotLCP[i], wantLCP[i])
		}
	}
}

// checkEquivalent asserts the full parallel ≡ sequential contract on one
// input: same permutation (via the satellite original-index channel, which
// distinguishes duplicate strings), same LCP array, same work total.
func checkEquivalent(t *testing.T, ss [][]byte, cores int) {
	t.Helper()
	seqSS, seqSat := cloneInput(ss)
	seqLCP, seqWork := SortLCP(seqSS, seqSat)

	pool := par.New(cores)
	parOrder, parLCP, parWork, _ := ParallelSortLCP(pool, ss, nil)
	parSS := strutil.Set{Strings: ss, Order: parOrder}.Gather()

	checkOracle(t, ss, parSS, parLCP)
	if parWork != seqWork {
		t.Fatalf("cores=%d: work %d, sequential %d", cores, parWork, seqWork)
	}
	for i := range seqSS {
		if !bytes.Equal(parSS[i], seqSS[i]) {
			t.Fatalf("cores=%d: string %d differs: %q vs %q", cores, i, parSS[i], seqSS[i])
		}
		if uint64(parOrder[i]) != seqSat[i] {
			t.Fatalf("cores=%d: permutation differs at %d: order %d vs sat %d", cores, i, parOrder[i], seqSat[i])
		}
		if parLCP[i] != seqLCP[i] {
			t.Fatalf("cores=%d: lcp[%d] = %d, sequential %d", cores, i, parLCP[i], seqLCP[i])
		}
	}

	// The no-LCP path (Sort / ParallelSort) against the same baseline.
	mkSS, mkSat := cloneInput(ss)
	mkWork := Sort(mkSS, mkSat)
	pmOrder, pmWork, _ := ParallelSort(pool, ss)
	pmSS := strutil.Set{Strings: ss, Order: pmOrder}.Gather()
	checkOracle(t, ss, pmSS, nil)
	if pmWork != mkWork {
		t.Fatalf("cores=%d: ParallelSort work %d, Sort %d", cores, pmWork, mkWork)
	}
	for i := range mkSS {
		if !bytes.Equal(pmSS[i], mkSS[i]) || uint64(pmOrder[i]) != mkSat[i] {
			t.Fatalf("cores=%d: ParallelSort diverges from Sort at %d", cores, i)
		}
	}
}

func TestParallelSortEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Sizes straddling parSortMin so both the inline fallback and the real
	// parallel decomposition (including multi-level recursion) run.
	for _, n := range []int{0, 1, 500, parSortMin - 1, parSortMin, 3 * parSortMin, 20000} {
		ss := randomStrings(rng, n)
		for _, cores := range []int{1, 2, 3, 8} {
			checkEquivalent(t, ss, cores)
		}
	}
}

func TestParallelSortLCPReusesProvidedSlice(t *testing.T) {
	ss := randomStrings(rand.New(rand.NewSource(3)), 2*parSortMin)
	lcp := make([]int32, len(ss))
	_, got, _, _ := ParallelSortLCP(par.New(4), ss, lcp)
	if &got[0] != &lcp[0] {
		t.Fatal("provided lcp slice was not reused")
	}
}

func TestParallelSortNilSatellites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ss := randomStrings(rng, 3*parSortMin)
	seq := make([][]byte, len(ss))
	copy(seq, ss)
	wantLCP, wantWork := SortLCP(seq, nil)
	order, gotLCP, gotWork, _ := ParallelSortLCP(par.New(4), ss, nil)
	if gotWork != wantWork {
		t.Fatalf("work %d, want %d", gotWork, wantWork)
	}
	for i := range seq {
		if !bytes.Equal(ss[order[i]], seq[i]) || gotLCP[i] != wantLCP[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// FuzzParallelSortEquivalence: random string sets and core counts, parallel
// sort ≡ sequential SortLCP on permutation, LCPs and work.
func FuzzParallelSortEquivalence(f *testing.F) {
	f.Add([]byte("apple\nbanana\napple\nbanan\n"), uint8(4), uint16(100))
	f.Add([]byte{0, 0, 1, 0xff, 0, 0}, uint8(2), uint16(5000))
	f.Add([]byte("seed"), uint8(7), uint16(9000))
	f.Fuzz(func(t *testing.T, corpus []byte, coresByte uint8, nWant uint16) {
		cores := 1 + int(coresByte%8)
		n := int(nWant) % 12000
		if len(corpus) == 0 {
			corpus = []byte{0}
		}
		// Derive n strings as slices of the corpus: fuzzer-controlled
		// content with heavy overlap, which maximizes shared prefixes.
		rng := rand.New(rand.NewSource(int64(len(corpus))*31 + int64(cores)))
		ss := make([][]byte, n)
		for i := range ss {
			lo := rng.Intn(len(corpus))
			hi := lo + rng.Intn(len(corpus)-lo+1)
			ss[i] = corpus[lo:hi]
		}

		seqSS, seqSat := cloneInput(ss)
		seqLCP, seqWork := SortLCP(seqSS, seqSat)
		parOrder, parLCP, parWork, _ := ParallelSortLCP(par.New(cores), ss, nil)
		parSS := strutil.Set{Strings: ss, Order: parOrder}.Gather()
		checkOracle(t, ss, parSS, parLCP)
		if parWork != seqWork {
			t.Fatalf("cores=%d n=%d: work %d, sequential %d", cores, n, parWork, seqWork)
		}
		for i := range seqSS {
			if !bytes.Equal(parSS[i], seqSS[i]) || uint64(parOrder[i]) != seqSat[i] || parLCP[i] != seqLCP[i] {
				t.Fatalf("cores=%d n=%d: diverged at %d", cores, n, i)
			}
		}
	})
}

// TestStepOneAllocation pins what Step 1 allocates per string on one PE's
// share of a text input: the proxies (twice for the radix passes' scratch),
// the 4-byte order and, with LCPs, the 4-byte LCP array — and no sorted
// array of 24-byte slice headers, which the callers read through the order
// instead.
func TestStepOneAllocation(t *testing.T) {
	const n = 100000
	ss := shuffled(1, input.CommonCrawlLike(input.CCConfig{LinesPerPE: n, Seed: 1}, 0, 1))
	pool := par.New(2)
	for _, c := range []struct {
		name  string
		limit float64 // bytes per string
		sort  func()
	}{
		{"ParallelSortLCP", 33, func() { ParallelSortLCP(pool, ss, nil) }}, // 24 + 4 + 4
		{"ParallelSort", 17, func() { ParallelSort(pool, ss) }},            // 12 + 4
	} {
		c.sort() // warm the pool
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.sort()
		}
		runtime.ReadMemStats(&after)
		perStr := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(ss))
		if perStr > c.limit {
			t.Errorf("%s allocates %.1f B/str, limit %.0f", c.name, perStr, c.limit)
		}
		t.Logf("%s: %.1f B/str", c.name, perStr)
	}
}
