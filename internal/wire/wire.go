// Package wire implements the binary message formats of the distributed
// string sorters: variable-length integers, fixed-width values, bitsets,
// and the one run layout that every string payload of the sorters and
// every page of a sorted-run file share. A run is a uvarint item count,
// then per item
//
//	[uvarint lcp]  with RunLCP: the LCP with the previous string of the run
//	[uvarint sat]  with RunSats: the item's satellite word
//	uvarint n      then n bytes: the string's characters after the LCP
//
// The run's format says which of the two optional columns it holds. MS
// ships its Step-3 buckets with the LCP column (the LCP compression of
// Section V-B of the paper: after the first string of a run, only the
// length of the common prefix with the previous string and the remaining
// characters travel), MS-simple and FKmerge with neither, PDMS its
// distinguishing prefixes with both (the satellite is the origin), and
// hQuick its strings with the satellite column (the tie-breaking id).
// Apart from the transport's lcp codec, which re-packs LCP runs in flight,
// this package is the only code that encodes or decodes an item: the sizer
// and encoder (RunSize, AppendRun, AppendItem), the one-shot decoder
// (DecodeRun), the extent walk (RunExtent) and the pull decoder
// (RunCursor).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dss/internal/strutil"
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrCorrupt   = errors.New("wire: corrupt message")
)

// Buffer is an append-only encoder for wire messages.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The returned slice aliases the
// buffer's storage.
func (w *Buffer) Bytes() []byte { return w.b }

// Uvarint appends an unsigned varint.
func (w *Buffer) Uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// Raw appends raw bytes without a length prefix.
func (w *Buffer) Raw(p []byte) {
	w.b = append(w.b, p...)
}

// BytesPrefixed appends a length-prefixed byte string.
func (w *Buffer) BytesPrefixed(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.Raw(p)
}

// Reader decodes wire messages produced by Buffer.
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a Reader over the given message.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// Raw returns the next n bytes without copying.
func (r *Reader) Raw(n int) ([]byte, error) {
	if n < 0 || r.Remaining() < n {
		return nil, ErrTruncated
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p, nil
}

// BytesPrefixed decodes a length-prefixed byte string without copying.
func (r *Reader) BytesPrefixed() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, ErrTruncated
	}
	return r.Raw(int(n))
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// setBlock is how many strings the run encoders load at a time
// (strutil.Set.Load): the headers of a bucket read through Step 1's order
// lie anywhere in the caller's array, and loading a block of them in one
// loop overlaps their cache misses. A block is 1.5 KiB of stack.
const setBlock = 64

// checkColumns panics unless every column f holds has one entry per item.
func checkColumns(f RunFormat, n int, lcps []int32, sats []uint64) {
	if n > 0 && (f&RunLCP != 0 && len(lcps) != n || f&RunSats != 0 && len(sats) != n) {
		panic(fmt.Sprintf("wire: %d strings but %d lcps and %d satellites", n, len(lcps), len(sats)))
	}
}

// AppendItem appends one item of a run of format f: s, front-coded by its
// LCP lcp with the run's previous string (ignored without RunLCP; at most
// len(s)), and its satellite sat (ignored without RunSats).
func AppendItem(dst []byte, f RunFormat, s []byte, lcp int32, sat uint64) []byte {
	h := 0
	if f&RunLCP != 0 {
		h = int(lcp)
		dst = binary.AppendUvarint(dst, uint64(h))
	}
	if f&RunSats != 0 {
		dst = binary.AppendUvarint(dst, sat)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)-h))
	return append(dst, s[h:]...)
}

// RunSize returns the exact encoded size of AppendRun(nil, f, set, lcps,
// sats).
func RunSize(f RunFormat, set strutil.Set, lcps []int32, sats []uint64) int {
	n := set.Len()
	total := UvarintLen(uint64(n))
	var blk [setBlock][]byte
	for base := 0; base < n; base += setBlock {
		for j, s := range set.Load(blk[:], base) {
			h := 0
			if f&RunLCP != 0 {
				if base+j > 0 {
					h = int(lcps[base+j])
				}
				total += UvarintLen(uint64(h))
			}
			if f&RunSats != 0 {
				total += UvarintLen(sats[base+j])
			}
			total += UvarintLen(uint64(len(s)-h)) + len(s) - h
		}
	}
	return total
}

// AppendRun appends the run of format f over the strings of set, in set
// order, to dst and returns the extended slice, so callers can serialize
// many runs into one pre-sized buffer. lcps[i] (RunLCP) and sats[i]
// (RunSats) belong to the i-th string of set; a column f lacks may be nil.
// lcps[0] is ignored: the first string of a run always travels in full, so
// callers can pass a sub-slice of a larger LCP array without zeroing its
// boundary entry. Its loop body is AppendItem written out: it is Step 3's
// hot loop, where a call per item showed in BenchmarkAppendStringsLCP.
func AppendRun(dst []byte, f RunFormat, set strutil.Set, lcps []int32, sats []uint64) []byte {
	n := set.Len()
	checkColumns(f, n, lcps, sats)
	dst = binary.AppendUvarint(dst, uint64(n))
	var blk [setBlock][]byte
	for base := 0; base < n; base += setBlock {
		for j, s := range set.Load(blk[:], base) {
			h := 0
			if f&RunLCP != 0 {
				if base+j > 0 {
					h = int(lcps[base+j])
				}
				dst = binary.AppendUvarint(dst, uint64(h))
			}
			if f&RunSats != 0 {
				dst = binary.AppendUvarint(dst, sats[base+j])
			}
			dst = binary.AppendUvarint(dst, uint64(len(s)-h))
			dst = append(dst, s[h:]...)
		}
	}
	return dst
}

// EncodeRun is AppendRun into a buffer of exactly the run's size.
func EncodeRun(f RunFormat, set strutil.Set, lcps []int32, sats []uint64) []byte {
	return AppendRun(make([]byte, 0, RunSize(f, set, lcps, sats)), f, set, lcps, sats)
}

// EncodeStrings encodes ss as a RunStrings run.
func EncodeStrings(ss [][]byte) []byte {
	return EncodeRun(RunStrings, strutil.Set{Strings: ss}, nil, nil)
}

// DecodeStrings decodes a RunStrings run.
func DecodeStrings(msg []byte) ([][]byte, error) {
	ss, _, _, err := DecodeRun(RunStrings, msg)
	return ss, err
}

// StringsLCPSize is RunSize of the RunLCP run of ss.
func StringsLCPSize(ss [][]byte, lcps []int32) int {
	return RunSize(RunLCP, strutil.Set{Strings: ss}, lcps, nil)
}

// AppendStringsLCP is AppendRun of the RunLCP run of ss.
func AppendStringsLCP(dst []byte, ss [][]byte, lcps []int32) []byte {
	return AppendRun(dst, RunLCP, strutil.Set{Strings: ss}, lcps, nil)
}

// DecodeStringsLCP is DecodeRun of a RunLCP run.
func DecodeStringsLCP(msg []byte) ([][]byte, []int32, error) {
	ss, lcps, _, err := DecodeRun(RunLCP, msg)
	return ss, lcps, err
}

// RunExtent walks an encoded run's varints without materializing a string
// and returns its string count and the total length of its decoded strings
// — what a decoder needs to size its output exactly. It rejects what the
// decoders reject: a count no message this short can hold, a truncated
// item, and an LCP longer than the predecessor (so a first LCP other than
// 0). Bytes after the run's last item are ignored.
func RunExtent(f RunFormat, msg []byte) (n, chars int, err error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	if cnt > uint64(len(msg)) { // every item takes at least one byte
		return 0, 0, ErrCorrupt
	}
	prevLen := 0
	for i := uint64(0); i < cnt; i++ {
		var h uint64
		if f&RunLCP != 0 {
			if h, err = r.Uvarint(); err != nil {
				return 0, 0, err
			}
			if h > uint64(prevLen) {
				return 0, 0, ErrCorrupt
			}
		}
		if f&RunSats != 0 {
			if _, err = r.Uvarint(); err != nil {
				return 0, 0, err
			}
		}
		s, err := r.BytesPrefixed()
		if err != nil {
			return 0, 0, err
		}
		prevLen = int(h) + len(s)
		chars += prevLen
	}
	return int(cnt), chars, nil
}

// DecodeRun reverses AppendRun: the strings, rematerialized by copying the
// shared prefix from the previously decoded string, and the columns f
// holds (nil for one it lacks; lcps[0] == 0). RunExtent validates and
// sizes the whole message first, so a peer's lying count costs nothing,
// and the strings are sub-slices of one exactly sized arena that does not
// alias msg.
func DecodeRun(f RunFormat, msg []byte) (ss [][]byte, lcps []int32, sats []uint64, err error) {
	n, chars, err := RunExtent(f, msg)
	if err != nil {
		return nil, nil, nil, err
	}
	r := NewReader(msg)
	r.Uvarint()
	ss = make([][]byte, n)
	if f&RunLCP != 0 {
		lcps = make([]int32, n)
	}
	if f&RunSats != 0 {
		sats = make([]uint64, n)
	}
	arena := make([]byte, 0, chars)
	var prev []byte
	for i := range ss {
		var h uint64
		if lcps != nil {
			h, _ = r.Uvarint()
			lcps[i] = int32(h)
		}
		if sats != nil {
			sats[i], _ = r.Uvarint()
		}
		suffix, _ := r.BytesPrefixed()
		off := len(arena)
		arena = append(arena, prev[:h]...)
		arena = append(arena, suffix...)
		ss[i] = arena[off:len(arena):len(arena)]
		prev = ss[i]
	}
	return ss, lcps, sats, nil
}

// EncodeUint64s serializes a uint64 slice as varints.
func EncodeUint64s(vs []uint64) []byte {
	w := NewBuffer(len(vs)*4 + 8)
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
	return w.Bytes()
}

// DecodeUint64s reverses EncodeUint64s.
func DecodeUint64s(msg []byte) ([]uint64, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg))+1 {
		return nil, ErrCorrupt
	}
	out := make([]uint64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// AppendUintsFixed appends values as a uvarint count followed by width
// little-endian bytes each (1 ≤ width ≤ 8; every value must fit) — the
// fingerprint exchange format of PDMS without Golomb coding. The width is
// not in the message: both sides derive it from the round's hash range.
func AppendUintsFixed(dst []byte, vs []uint64, width int) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(vs)*width)
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	var le [8]byte
	for _, v := range vs {
		if width < 8 && v>>(8*width) != 0 {
			panic("wire: value exceeds the fixed width")
		}
		binary.LittleEndian.PutUint64(le[:], v)
		dst = append(dst, le[:width]...)
	}
	return dst
}

// AppendDecodeUintsFixed decodes an AppendUintsFixed message of the given
// width onto the end of dst, so a receiver can reuse one array across
// messages. Bytes after the declared values are ignored.
func AppendDecodeUintsFixed(dst []uint64, msg []byte, width int) ([]uint64, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg))/uint64(width) { // compare counts: cnt*width wraps
		return nil, ErrCorrupt
	}
	raw, err := r.Raw(int(cnt) * width)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, int(cnt))
	var le [8]byte
	for ; len(raw) > 0; raw = raw[width:] {
		copy(le[:], raw[:width])
		dst = append(dst, binary.LittleEndian.Uint64(le[:]))
	}
	return dst, nil
}

// AppendBitset appends booleans packed into a bitset message: a uvarint
// count, then the bits, the first in the lowest bit of the first byte.
func AppendBitset(dst []byte, bs []bool) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+(len(bs)+7)/8)
	dst = binary.AppendUvarint(dst, uint64(len(bs)))
	var cur byte
	nbits := 0
	for _, b := range bs {
		if b {
			cur |= 1 << uint(nbits)
		}
		nbits++
		if nbits == 8 {
			dst = append(dst, cur)
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		dst = append(dst, cur)
	}
	return dst
}

// AppendDecodeBitset decodes an AppendBitset message onto the end of dst.
func AppendDecodeBitset(dst []bool, msg []byte) ([]bool, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg))*8 { // compare counts: cnt+7 wraps
		return nil, ErrCorrupt
	}
	raw, err := r.Raw(int((cnt + 7) / 8))
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, int(cnt))
	for i := 0; i < int(cnt); i++ {
		dst = append(dst, raw[i/8]&(1<<uint(i%8)) != 0)
	}
	return dst, nil
}
