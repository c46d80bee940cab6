package partition

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dss/internal/comm"
	"dss/internal/input"
	"dss/internal/strsort"
	"dss/internal/strutil"
)

// distribute splits global strings over p PEs round-robin and sorts each
// local set (the precondition of Step 2).
func distribute(global [][]byte, p int) [][][]byte {
	locals := make([][][]byte, p)
	for i, s := range global {
		locals[i%p] = append(locals[i%p], s)
	}
	for pe := range locals {
		strsort.Sort(locals[pe], nil)
	}
	return locals
}

func genStrings(rng *rand.Rand, n, minLen, maxLen, sigma int) [][]byte {
	ss := make([][]byte, n)
	for i := range ss {
		l := minLen
		if maxLen > minLen {
			l += rng.Intn(maxLen - minLen)
		}
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(sigma))
		}
		ss[i] = s
	}
	return ss
}

// runSelect runs SelectSplitters on every PE and checks agreement.
func runSelect(t *testing.T, locals [][][]byte, opt func(pe int) Options) [][]byte {
	t.Helper()
	p := len(locals)
	m := comm.New(p)
	results := make([][][]byte, p)
	err := m.Run(func(c *comm.Comm) error {
		results[c.Rank()] = SelectSplitters(c, locals[c.Rank()], opt(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 1; pe < p; pe++ {
		if len(results[pe]) != len(results[0]) {
			t.Fatalf("PE %d got %d splitters, PE 0 got %d", pe, len(results[pe]), len(results[0]))
		}
		for i := range results[0] {
			if !bytes.Equal(results[pe][i], results[0][i]) {
				t.Fatalf("PE %d splitter %d = %q, PE 0 has %q", pe, i, results[pe][i], results[0][i])
			}
		}
	}
	if len(results[0]) != p-1 {
		t.Fatalf("got %d splitters, want %d", len(results[0]), p-1)
	}
	for i := 1; i < len(results[0]); i++ {
		if bytes.Compare(results[0][i-1], results[0][i]) > 0 {
			t.Fatalf("splitters unsorted at %d", i)
		}
	}
	return results[0]
}

func TestSelectSplittersAgreeAcrossPEs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, p := range []int{2, 3, 5, 8} {
		global := genStrings(rng, 500, 1, 12, 3)
		locals := distribute(global, p)
		runSelect(t, locals, func(int) Options {
			return Options{V: 8, GroupID: 1}
		})
	}
}

func TestTheorem2StringBucketBound(t *testing.T) {
	// Theorem 2: every bucket holds at most n/p + n/v strings.
	rng := rand.New(rand.NewSource(62))
	for _, p := range []int{2, 4, 8} {
		for _, v := range []int{4, 16, 64} {
			n := 4000
			global := genStrings(rng, n, 1, 10, 4)
			locals := distribute(global, p)
			splitters := runSelect(t, locals, func(int) Options {
				return Options{V: v, Sampling: StringSampling, GroupID: 1}
			})
			sizes := bucketSizesGlobal(global, splitters)
			bound := n/p + n/v + p + v // rounding slack
			for b, size := range sizes {
				if size > bound {
					t.Fatalf("p=%d v=%d: bucket %d has %d strings > bound %d",
						p, v, b, size, bound)
				}
			}
		}
	}
}

func TestTheorem3CharBucketBound(t *testing.T) {
	// Theorem 3: at most N/p + N/v + (p+v)·ℓ̂ characters per bucket, even
	// with skewed string lengths.
	rng := rand.New(rand.NewSource(63))
	for _, p := range []int{2, 4, 8} {
		v := 16
		var global [][]byte
		// Skew: 20% of strings are 10× longer.
		for i := 0; i < 2000; i++ {
			l := 5 + rng.Intn(10)
			if i%5 == 0 {
				l *= 10
			}
			s := make([]byte, l)
			for j := range s {
				s[j] = byte('a' + rng.Intn(3))
			}
			global = append(global, s)
		}
		locals := distribute(global, p)
		splitters := runSelect(t, locals, func(int) Options {
			return Options{V: v, Sampling: CharSampling, GroupID: 1}
		})
		chars := bucketCharsGlobal(global, splitters)
		nTotal := int(strutil.TotalLen(global))
		lhat := strutil.MaxLen(global)
		bound := nTotal/p + nTotal/v + (p+v+2)*lhat
		for b, cc := range chars {
			if cc > bound {
				t.Fatalf("p=%d: bucket %d has %d chars > bound %d", p, b, cc, bound)
			}
		}
	}
}

func TestCharSamplingBeatsStringSamplingOnSkew(t *testing.T) {
	// The Section VII-E skew experiment: with skewed output lengths,
	// char-based sampling must yield better character balance.
	rng := rand.New(rand.NewSource(64))
	var global [][]byte
	for i := 0; i < 3000; i++ {
		var s []byte
		if i < 600 { // the smallest strings are padded 4× (paper's skew)
			s = append(bytes.Repeat([]byte{'a'}, 40), byte('a'+rng.Intn(26)), byte('a'+rng.Intn(26)))
		} else {
			s = []byte{byte('b' + rng.Intn(20)), byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))}
		}
		global = append(global, s)
	}
	p := 8
	locals := distribute(global, p)
	sStr := runSelect(t, locals, func(int) Options {
		return Options{V: 16, Sampling: StringSampling, GroupID: 1}
	})
	sChr := runSelect(t, locals, func(int) Options {
		return Options{V: 16, Sampling: CharSampling, GroupID: 1}
	})
	maxStr := maxOf(bucketCharsGlobal(global, sStr))
	maxChr := maxOf(bucketCharsGlobal(global, sChr))
	if maxChr >= maxStr {
		t.Fatalf("char sampling (%d) not better than string sampling (%d) on skew", maxChr, maxStr)
	}
}

func TestDistributedSelectMatchesCentralizedRoughly(t *testing.T) {
	// With a trivial "distributed" sorter that routes everything through a
	// real global sort, the selected splitters must drive balanced buckets.
	rng := rand.New(rand.NewSource(65))
	global := genStrings(rng, 2000, 1, 8, 4)
	p := 4
	locals := distribute(global, p)
	fakeDist := func(c *comm.Comm, samples [][]byte, gid int) [][]byte {
		// Gather everything everywhere, sort, return an equal slice per PE.
		g := comm.NewGroup(c, []int{0, 1, 2, 3}, gid)
		parts := g.Allgatherv(encodeStrings(samples))
		var all [][]byte
		for _, part := range parts {
			all = append(all, decodeStrings(part)...)
		}
		strsort.Sort(all, nil)
		lo := c.Rank() * len(all) / p
		hi := (c.Rank() + 1) * len(all) / p
		return all[lo:hi]
	}
	splitters := runSelect(t, locals, func(int) Options {
		return Options{V: 16, GroupID: 1, DistSort: fakeDist}
	})
	sizes := bucketSizesGlobal(global, splitters)
	bound := len(global)/p + len(global)/16 + p + 16
	for b, size := range sizes {
		if size > bound {
			t.Fatalf("bucket %d: %d > %d", b, size, bound)
		}
	}
}

func TestBucketsBoundaries(t *testing.T) {
	ss := [][]byte{
		[]byte("a"), []byte("b"), []byte("b"), []byte("c"), []byte("d"), []byte("e"),
	}
	// Splitters b, d: bucket0 = s ≤ b, bucket1 = b < s ≤ d, bucket2 = s > d.
	off := Buckets(ss, [][]byte{[]byte("b"), []byte("d")})
	want := []int{0, 3, 5, 6}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("off = %v, want %v", off, want)
		}
	}
	// Empty input.
	off = Buckets(nil, [][]byte{[]byte("m")})
	if off[0] != 0 || off[1] != 0 || off[2] != 0 {
		t.Fatalf("empty buckets = %v", off)
	}
	// No splitters: single bucket.
	off = Buckets(ss, nil)
	if len(off) != 2 || off[1] != 6 {
		t.Fatalf("single bucket offsets = %v", off)
	}
}

func TestBucketsEqualSplittersAndDuplicates(t *testing.T) {
	// All strings equal to all splitters: everything lands in bucket 0.
	ss := [][]byte{[]byte("x"), []byte("x"), []byte("x")}
	off := Buckets(ss, [][]byte{[]byte("x"), []byte("x")})
	if off[1] != 3 || off[2] != 3 {
		t.Fatalf("duplicate splitters: off = %v", off)
	}
}

func TestSelectSplittersEmptyPEs(t *testing.T) {
	// Some PEs have no strings at all.
	p := 4
	locals := make([][][]byte, p)
	locals[1] = [][]byte{[]byte("m"), []byte("q")}
	runSelect(t, locals, func(int) Options {
		return Options{V: 4, GroupID: 1}
	})
}

func TestPrefixSamplesTruncateSplitters(t *testing.T) {
	// PDMS samples its distinguishing prefixes, weighted by their lengths:
	// splitters must be prefixes.
	rng := rand.New(rand.NewSource(66))
	global := genStrings(rng, 400, 20, 30, 3)
	p := 4
	locals := distribute(global, p)
	prefixes := make([][][]byte, p)
	dists := make([][]int32, p)
	for pe := range locals {
		dists[pe] = strutil.DistinguishingPrefixes(locals[pe])
		for i, s := range locals[pe] {
			prefixes[pe] = append(prefixes[pe], s[:dists[pe][i]])
		}
	}
	splitters := runSelect(t, prefixes, func(pe int) Options {
		return Options{V: 8, Sampling: CharSampling, Weights: dists[pe], GroupID: 1}
	})
	maxSplit := 0
	for _, f := range splitters {
		if len(f) > maxSplit {
			maxSplit = len(f)
		}
	}
	if maxSplit >= 20 {
		t.Fatalf("splitters not truncated to distinguishing prefixes: max len %d", maxSplit)
	}
}

// Helpers.

func bucketSizesGlobal(global [][]byte, splitters [][]byte) []int {
	sorted := slices.Clone(global)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	off := Buckets(sorted, splitters)
	sizes := make([]int, len(off)-1)
	for i := range sizes {
		sizes[i] = off[i+1] - off[i]
	}
	return sizes
}

func bucketCharsGlobal(global [][]byte, splitters [][]byte) []int {
	sorted := slices.Clone(global)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	off := Buckets(sorted, splitters)
	chars := make([]int, len(off)-1)
	for i := range chars {
		for _, s := range sorted[off[i]:off[i+1]] {
			chars[i] += len(s)
		}
	}
	return chars
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func encodeStrings(ss [][]byte) []byte {
	var buf []byte
	buf = append(buf, byte(len(ss)), byte(len(ss)>>8))
	for _, s := range ss {
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeStrings(b []byte) [][]byte {
	n := int(b[0]) | int(b[1])<<8
	out := make([][]byte, 0, n)
	pos := 2
	for i := 0; i < n; i++ {
		l := int(b[pos])
		pos++
		out = append(out, b[pos:pos+l])
		pos += l
	}
	return out
}

// TestSetMatchesGathered is the differential of Step 2 read through Step
// 1's order against the same strings gathered into sorted order: equal
// splitters from every sampling strategy, tie-breaking included, and equal
// bucket offsets.
func TestSetMatchesGathered(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const p = 4
	locals := make([][][]byte, p)
	for pe := range locals {
		locals[pe] = genStrings(rng, 300, 0, 10, 3)
		for i := range locals[pe] {
			if i%17 == 0 {
				locals[pe][i] = nil
			}
		}
	}
	orders := make([][]uint32, p)
	gathered := make([][][]byte, p)
	for pe, ss := range locals {
		orders[pe], _, _ = strsort.ParallelSort(nil, ss)
		gathered[pe] = strutil.Set{Strings: ss, Order: orders[pe]}.Gather()
	}
	for _, opt := range []Options{
		{Sampling: StringSampling},
		{Sampling: CharSampling},
		{Sampling: StringSampling, TieBreak: true},
		{Sampling: CharSampling, TieBreak: true},
		{RandomSampling: true, Seed: 5},
	} {
		m := comm.New(p)
		err := m.Run(func(c *comm.Comm) error {
			pe := c.Rank()
			set := strutil.Set{Strings: locals[pe], Order: orders[pe]}
			want := SelectSplitters(c, gathered[pe], opt)
			got := SelectSplittersSet(c, set, opt)
			if len(got) != len(want) {
				t.Errorf("%+v PE %d: %d splitters, gathered %d", opt, pe, len(got), len(want))
				return nil
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%+v PE %d: splitter %d = %q, gathered %q", opt, pe, i, got[i], want[i])
				}
			}
			var wantOff, gotOff []int
			if opt.TieBreak {
				wantOff = BucketsTie(strutil.Set{Strings: gathered[pe]}, pe, want)
				gotOff = BucketsTie(set, pe, want)
			} else {
				wantOff, gotOff = Buckets(gathered[pe], want), BucketsSet(set, want)
			}
			for i := range wantOff {
				if gotOff[i] != wantOff[i] {
					t.Errorf("%+v PE %d: offset %d = %d, gathered %d", opt, pe, i, gotOff[i], wantOff[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sink keeps the benchmarked results alive.
var sink int

// BenchmarkBuckets is the package's rung on one PE's share (p = 4) of the
// cc_ms_local input, read through Step 1's order as MS reads it, or
// gathered into sorted order: the PE-local part of Step 2 — draw the v = 15
// local samples (string- or character-based), take p − 1 = 3 of them as
// splitters, and cut the set into p buckets. Bytes are the share's
// characters.
func BenchmarkBuckets(b *testing.B) {
	ss := input.CommonCrawlLike(input.CCConfig{LinesPerPE: 500_000, Seed: 1}, 0, 4)
	order, _, _ := strsort.ParallelSort(nil, ss)
	sorted := strutil.Set{Strings: ss, Order: order}
	for _, layout := range []struct {
		name string
		set  strutil.Set
	}{{"order", sorted}, {"gathered", strutil.Set{Strings: sorted.Gather()}}} {
		for _, sampling := range []Sampling{StringSampling, CharSampling} {
			b.Run(layout.name+"/"+sampling.String(), func(b *testing.B) {
				opt := Options{V: 15, Sampling: sampling}
				b.SetBytes(strutil.TotalLen(ss))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					samples := drawSamples(layout.set, layout.set.At, opt)
					splitters := [][]byte{samples[3], samples[7], samples[11]}
					off := BucketsSet(layout.set, splitters)
					sink += off[2]
				}
			})
		}
	}
}
