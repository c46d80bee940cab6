// Package strutil provides the string primitives shared by all sorters:
// lexicographic comparison with LCP output, LCP array computation and
// validation, distinguishing prefix lengths (the D and DIST(s) quantities
// of Section II of the paper), and order-independent multiset hashing used
// by the verifiers.
//
// Strings are byte slices without 0-termination; lengths are explicit
// (footnote 1 of the paper notes the algorithms adapt directly to this
// representation). The end-of-string behaves like a character smaller than
// every alphabet character: a proper prefix sorts before its extensions,
// which is exactly what bytes.Compare provides.
package strutil

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sort"
)

// Compare returns -1, 0, or +1 for a < b, a == b, a > b lexicographically.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// mismatchFrom returns the first index ≥ from at which a and b differ,
// scanning eight bytes per step; the result is capped at min(len(a),len(b)).
// The XOR of two little-endian 64-bit loads has its lowest set bit inside
// the first differing byte, so TrailingZeros64/8 converts the word mismatch
// into a byte index without a scalar re-scan.
func mismatchFrom(a, b []byte, from int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := from
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// LCP returns the length of the longest common prefix of a and b.
func LCP(a, b []byte) int {
	return mismatchFrom(a, b, 0)
}

// CompareLCP compares a and b, skipping the first `from` characters, which
// the caller asserts are equal. It returns the comparison result and the
// full LCP(a, b). The number of characters inspected is LCP(a,b)-from+1,
// which is what makes LCP-aware merging inspect every character only once.
func CompareLCP(a, b []byte, from int) (cmp, lcp int) {
	i := mismatchFrom(a, b, from)
	switch {
	case i < len(a) && i < len(b):
		if a[i] < b[i] {
			return -1, i
		}
		return 1, i
	case i < len(b): // a is a proper prefix of b
		return -1, i
	case i < len(a): // b is a proper prefix of a
		return 1, i
	default:
		return 0, i
	}
}

// ComputeLCPArray returns the LCP array of a sorted string array:
// out[0] = 0 and out[i] = LCP(ss[i-1], ss[i]).
func ComputeLCPArray(ss [][]byte) []int32 {
	return ComputeLCPArrayInto(ss, nil)
}

// ComputeLCPArrayInto is ComputeLCPArray writing into a caller-provided
// slice when it has sufficient capacity, so repeated computations in one
// run reuse the same allocation.
func ComputeLCPArrayInto(ss [][]byte, out []int32) []int32 {
	if cap(out) < len(ss) {
		out = make([]int32, len(ss))
	}
	out = out[:len(ss)]
	if len(out) > 0 {
		out[0] = 0
	}
	for i := 1; i < len(ss); i++ {
		out[i] = int32(LCP(ss[i-1], ss[i]))
	}
	return out
}

// ValidateSortedLCP checks sortedness and LCP correctness in one pass:
// it returns the index of the first violation (order or LCP value), or -1.
// One CompareLCP per adjacent pair replaces the two scans of
// IsSorted + ValidateLCPArray, inspecting each character once.
func ValidateSortedLCP(ss [][]byte, lcps []int32) int {
	if len(lcps) != len(ss) {
		return 0
	}
	if len(lcps) > 0 && lcps[0] != 0 {
		return 0
	}
	for i := 1; i < len(ss); i++ {
		cmp, h := CompareLCP(ss[i-1], ss[i], 0)
		if cmp > 0 || int(lcps[i]) != h {
			return i
		}
	}
	return -1
}

// IsSorted reports whether ss is lexicographically non-decreasing.
func IsSorted(ss [][]byte) bool {
	for i := 1; i < len(ss); i++ {
		if bytes.Compare(ss[i-1], ss[i]) > 0 {
			return false
		}
	}
	return true
}

// ValidateLCPArray checks that lcps is exactly the LCP array of the sorted
// array ss. It returns the index of the first violation, or -1.
func ValidateLCPArray(ss [][]byte, lcps []int32) int {
	if len(lcps) != len(ss) {
		return 0
	}
	for i := 1; i < len(ss); i++ {
		if int(lcps[i]) != LCP(ss[i-1], ss[i]) {
			return i
		}
	}
	return -1
}

// DistinguishingPrefixes returns DIST(s) for every string of the set:
// the number of characters that must be inspected to distinguish s from all
// other strings, DIST(s) = max_{t≠s} LCP(s,t)+1, capped at |s| because a
// string's end acts as a terminator that always distinguishes it (a proper
// prefix needs all its |s| characters plus the implicit terminator, and no
// more characters exist to inspect).
//
// The input need not be sorted; the function sorts a copy internally.
func DistinguishingPrefixes(ss [][]byte) []int32 {
	n := len(ss)
	out := make([]int32, n)
	if n <= 1 {
		for i, s := range ss {
			if len(s) > 0 {
				out[i] = 1
			}
		}
		if n == 1 && len(ss[0]) == 0 {
			out[0] = 0
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(ss[idx[a]], ss[idx[b]]) < 0
	})
	// In sorted order, DIST is determined by the neighbors:
	// max(LCP(prev,s), LCP(s,next)) + 1, capped at |s|.
	prevLCP := make([]int, n) // LCP with previous sorted string
	for k := 1; k < n; k++ {
		prevLCP[k] = LCP(ss[idx[k-1]], ss[idx[k]])
	}
	for k := 0; k < n; k++ {
		h := 0
		if k > 0 && prevLCP[k] > h {
			h = prevLCP[k]
		}
		if k+1 < n && prevLCP[k+1] > h {
			h = prevLCP[k+1]
		}
		d := h + 1
		if l := len(ss[idx[k]]); d > l {
			d = l
		}
		out[idx[k]] = int32(d)
	}
	return out
}

// TotalD returns D = Σ DIST(s), the total distinguishing prefix size, the
// lower bound on characters any string sorter must inspect (Section II).
func TotalD(ss [][]byte) int64 {
	var d int64
	for _, v := range DistinguishingPrefixes(ss) {
		d += int64(v)
	}
	return d
}

// TotalLen returns N = Σ |s|, the total number of characters.
func TotalLen(ss [][]byte) int64 {
	var n int64
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}

// MaxLen returns ℓ̂, the length of the longest string (0 for empty input).
func MaxLen(ss [][]byte) int {
	m := 0
	for _, s := range ss {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// fnv1a64 hashes one string (FNV-1a, 64 bit).
func fnv1a64(s []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range s {
		h ^= uint64(c)
		h *= prime
	}
	// Length tag so that "" and missing strings differ.
	h ^= uint64(len(s)) + 0x9e3779b97f4a7c15
	h *= prime
	return h
}

// MultisetHash returns an order-independent hash of a string multiset: the
// wrap-around sum of per-string hashes. Two string arrays have the same
// MultisetHash iff (up to hash collisions) they are permutations of each
// other, which is how the verifiers check that sorting permutes its input.
func MultisetHash(ss [][]byte) uint64 {
	var h uint64
	for _, s := range ss {
		h = MultisetAdd(h, s)
	}
	return h
}

// MultisetAdd folds one string into a multiset accumulator — the
// streaming counterpart of MultisetHash for callers (the out-of-core
// verifier) that never materialize the whole array.
func MultisetAdd(h uint64, s []byte) uint64 {
	return h + fnv1a64(s)
}
