package partition

import (
	"encoding/binary"

	"dss/internal/strutil"
)

// Tie breaking (Section VIII, "one could remove load balancing problems
// due to duplicate strings by tie breaking techniques", after [Axtmann &
// Sanders, Robust Massively Parallel Sorting]).
//
// With plain splitters, all copies of a duplicated string fall into the
// same bucket: an input consisting of one repeated string sends everything
// to one PE. Tie breaking augments every string s with a globally unique
// tag (origin PE, local index) and partitions by the pair (s, tag), which
// splits runs of equal strings evenly across buckets.
//
// The pair is mapped to a single byte key whose plain lexicographic order
// equals the lexicographic order of (s, tag), so the distributed sample
// sorter (hQuick) can sort tie keys like ordinary strings:
//
//	enc(s, tag) = escape(s) ‖ 0x00 ‖ tag (8 bytes big-endian)
//
// where escape replaces byte b < 2 by the pair (0x01, b). The terminator
// 0x00 is strictly smaller than every escaped byte, so a proper prefix
// still sorts first, and the tag is only reached when the strings are
// byte-equal.

// TieKey encodes (s, tag) into an order-preserving byte key.
func TieKey(s []byte, tag uint64) []byte {
	out := make([]byte, 0, len(s)+10)
	for _, b := range s {
		if b < 2 {
			out = append(out, 0x01, b)
		} else {
			out = append(out, b)
		}
	}
	out = append(out, 0x00)
	return binary.BigEndian.AppendUint64(out, tag)
}

// CompareTie compares the pair (s, tag) against an encoded tie key without
// materializing the pair's own encoding.
func CompareTie(s []byte, tag uint64, key []byte) int {
	pos := 0
	for _, b := range s {
		var eb [2]byte
		n := 1
		if b < 2 {
			eb[0], eb[1] = 0x01, b
			n = 2
		} else {
			eb[0] = b
		}
		for k := 0; k < n; k++ {
			if pos >= len(key) {
				return 1 // key exhausted: key is a strict prefix
			}
			if eb[k] != key[pos] {
				if eb[k] < key[pos] {
					return -1
				}
				return 1
			}
			pos++
		}
	}
	// s consumed; the key must now hold the terminator.
	if pos >= len(key) {
		return 1
	}
	if key[pos] != 0x00 {
		return -1 // key continues with string bytes: s is a proper prefix
	}
	pos++
	if pos+8 > len(key) {
		return 1 // malformed/truncated tag sorts first
	}
	ktag := binary.BigEndian.Uint64(key[pos:])
	switch {
	case tag < ktag:
		return -1
	case tag > ktag:
		return 1
	default:
		return 0
	}
}

// BucketsTie computes bucket boundaries like Buckets, but against
// tie-key splitters: the string at sorted position k is compared as the
// pair (set.At(k), tag(rank, k)). set must be locally sorted; equal
// strings are ordered by their position, which makes the pair order
// globally consistent.
func BucketsTie(set strutil.Set, rank int, splitters [][]byte) []int {
	return bucketOffsets(set.Len(), splitters, func(k int, f []byte) bool {
		return CompareTie(set.At(k), tieTag(rank, k), f) > 0
	})
}

// tieTag builds the unique tag of the k-th sorted string of a PE.
func tieTag(rank, k int) uint64 {
	return uint64(uint32(rank))<<32 | uint64(uint32(k))
}
