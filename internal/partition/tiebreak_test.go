package partition

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dss/internal/strutil"
)

func TestTieKeyOrderMatchesPairOrder(t *testing.T) {
	f := func(a, b []byte, ta, tb uint64) bool {
		ka := TieKey(a, ta)
		kb := TieKey(b, tb)
		var want int
		if c := bytes.Compare(a, b); c != 0 {
			want = c
		} else {
			switch {
			case ta < tb:
				want = -1
			case ta > tb:
				want = 1
			}
		}
		return sign(bytes.Compare(ka, kb)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
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

func TestTieKeyEscapeBytes(t *testing.T) {
	// Strings containing the escape and terminator bytes must round-trip
	// and order correctly.
	cases := [][]byte{
		{}, {0x00}, {0x01}, {0x00, 0x00}, {0x01, 0x00}, {0x02}, {0xff},
		{0x00, 0xff}, {0x01, 0x01, 0x01},
	}
	for _, a := range cases {
		s, tag, ok := decodeTieKey(TieKey(a, 42))
		if !ok || tag != 42 || !bytes.Equal(s, a) {
			t.Fatalf("roundtrip failed for %v: %v %d %v", a, s, tag, ok)
		}
		for _, b := range cases {
			ka, kb := TieKey(a, 7), TieKey(b, 7)
			if sign(bytes.Compare(ka, kb)) != sign(bytes.Compare(a, b)) {
				t.Fatalf("order broken for %v vs %v", a, b)
			}
		}
	}
}

func TestCompareTieAgainstMaterialized(t *testing.T) {
	f := func(s []byte, tag uint64, k []byte, ktag uint64) bool {
		key := TieKey(k, ktag)
		return CompareTie(s, tag, key) == sign(bytes.Compare(TieKey(s, tag), key))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketsTieSplitsDuplicates(t *testing.T) {
	// 100 copies of one string with splitters cutting the run by tag.
	ss := make([][]byte, 100)
	for i := range ss {
		ss[i] = []byte("dup")
	}
	rank := 3
	splitters := [][]byte{
		TieKey([]byte("dup"), tieTag(rank, 24)),
		TieKey([]byte("dup"), tieTag(rank, 49)),
		TieKey([]byte("dup"), tieTag(rank, 74)),
	}
	off := BucketsTie(strutil.Set{Strings: ss}, rank, splitters)
	want := []int{0, 25, 50, 75, 100}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("off = %v, want %v", off, want)
		}
	}
}

func TestSelectSplittersTieBreakBalancesDuplicates(t *testing.T) {
	// All PEs hold only copies of the same string. Plain splitters dump
	// everything into one bucket; tie-break splitters spread it evenly.
	p := 8
	locals := make([][][]byte, p)
	for pe := range locals {
		for j := 0; j < 200; j++ {
			locals[pe] = append(locals[pe], []byte("all-equal"))
		}
	}
	maxBucket := func(tie bool) int {
		counts := make([]int, p)
		splitters := runSelect(t, locals, func(pe int) Options {
			return Options{V: 2*p - 1, GroupID: 1, TieBreak: tie}
		})
		for pe := range locals {
			var off []int
			if tie {
				off = BucketsTie(strutil.Set{Strings: locals[pe]}, pe, splitters)
			} else {
				off = Buckets(locals[pe], splitters)
			}
			for b := 0; b < p; b++ {
				counts[b] += off[b+1] - off[b]
			}
		}
		m := 0
		for _, c := range counts {
			if c > m {
				m = c
			}
		}
		return m
	}
	plain := maxBucket(false)
	tie := maxBucket(true)
	if plain < 1600 {
		t.Fatalf("plain splitters unexpectedly balanced duplicates: max %d", plain)
	}
	if tie > 400 { // mean is 200
		t.Fatalf("tie-break bucket still unbalanced: max %d of 1600", tie)
	}
}

// runSelect variant is defined in partition_test.go.

func TestRandomSamplingBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	p := 8
	global := genStrings(rng, 4000, 1, 10, 4)
	locals := distribute(global, p)
	splitters := runSelect(t, locals, func(int) Options {
		return Options{V: 64, GroupID: 1, RandomSampling: true, Seed: 5}
	})
	sizes := bucketSizesGlobal(global, splitters)
	mean := len(global) / p
	for b, size := range sizes {
		if size > 3*mean {
			t.Fatalf("random sampling bucket %d holds %d (mean %d)", b, size, mean)
		}
	}
}

func TestRandomSamplingDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	p := 4
	global := genStrings(rng, 800, 1, 8, 3)
	locals := distribute(global, p)
	a := runSelect(t, locals, func(int) Options {
		return Options{V: 16, GroupID: 1, RandomSampling: true, Seed: 9}
	})
	b := runSelect(t, locals, func(int) Options {
		return Options{V: 16, GroupID: 1, RandomSampling: true, Seed: 9}
	})
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("random sampling not reproducible under fixed seed")
		}
	}
}

func TestTieKeySortStability(t *testing.T) {
	// Sorting tie keys of equal strings must order by tag — the property
	// the distributed sample sorter relies on.
	keys := [][]byte{
		TieKey([]byte("x"), 30),
		TieKey([]byte("x"), 10),
		TieKey([]byte("x"), 20),
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	var tags []uint64
	for _, k := range keys {
		_, tag, ok := decodeTieKey(k)
		if !ok {
			t.Fatal("decode failed")
		}
		tags = append(tags, tag)
	}
	if tags[0] != 10 || tags[1] != 20 || tags[2] != 30 {
		t.Fatalf("tags = %v", tags)
	}
}

// decodeTieKey recovers (s, tag) from an encoded key.
func decodeTieKey(key []byte) ([]byte, uint64, bool) {
	var s []byte
	i := 0
	for i < len(key) {
		b := key[i]
		if b == 0x00 {
			if i+9 != len(key) {
				return nil, 0, false
			}
			return s, binary.BigEndian.Uint64(key[i+1:]), true
		}
		if b == 0x01 {
			if i+1 >= len(key) {
				return nil, 0, false
			}
			s = append(s, key[i+1])
			i += 2
			continue
		}
		s = append(s, b)
		i++
	}
	return nil, 0, false
}
