// Package wire implements the binary message formats of the distributed
// string sorters: variable-length integers, plain string-set serialization,
// and the LCP-compressed exchange format of Step 3 of Algorithm MS
// (Section V-B of the paper). LCP compression transmits, for each string
// after the first of a run, only the length of the common prefix with the
// previous string and the remaining characters.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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

// Len returns the current encoded length in bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Uvarint appends an unsigned varint.
func (w *Buffer) Uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// Uint64 appends a fixed-width little-endian 64-bit value.
func (w *Buffer) Uint64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// Raw appends raw bytes without a length prefix.
func (w *Buffer) Raw(p []byte) {
	w.b = append(w.b, p...)
}

// Bytes16 appends a length-prefixed byte string.
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

// Uint64 decodes a fixed-width little-endian 64-bit value.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
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

// StringsSize returns the exact encoded size of EncodeStrings(ss).
func StringsSize(ss [][]byte) int {
	total := UvarintLen(uint64(len(ss)))
	for _, s := range ss {
		total += UvarintLen(uint64(len(s))) + len(s)
	}
	return total
}

// EncodeStrings serializes a string set without LCP compression:
// count, then length-prefixed strings. This is the exchange format of
// MS-simple and FKmerge.
func EncodeStrings(ss [][]byte) []byte {
	return AppendStrings(make([]byte, 0, StringsSize(ss)), ss)
}

// AppendStrings appends the EncodeStrings encoding of ss to dst and
// returns the extended slice, letting callers serialize many runs into one
// pre-sized arena with O(1) allocations.
func AppendStrings(dst []byte, ss [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeStrings reverses EncodeStrings. The returned strings are copies and
// do not alias the message buffer beyond a single backing array. The whole
// message is validated and sized (RunExtent) before anything is allocated,
// so a peer's lying count costs nothing.
func DecodeStrings(msg []byte) ([][]byte, error) {
	n, chars, err := RunExtent(RunStrings, msg)
	if err != nil {
		return nil, err
	}
	r := NewReader(msg)
	r.Uvarint()
	out := make([][]byte, n)
	// Single backing array for cache friendliness.
	backing := make([]byte, 0, chars)
	for i := range out {
		s, _ := r.BytesPrefixed()
		off := len(backing)
		backing = append(backing, s...)
		out[i] = backing[off:len(backing):len(backing)]
	}
	return out, nil
}

// RunExtent walks an encoded run's varints without materializing a string
// and returns its string count and the total length of its decoded strings
// — what a decoder needs to size its output exactly. It rejects what the
// decoders reject: a count no message this short can hold, a truncated
// string, and in RunStringsLCP a first LCP other than 0 or an LCP longer
// than the predecessor. Bytes after the run's last string are ignored.
func RunExtent(format RunFormat, msg []byte) (n, chars int, err error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	if cnt > uint64(len(msg)) { // every string takes at least one byte
		return 0, 0, ErrCorrupt
	}
	prevLen := 0
	for i := uint64(0); i < cnt; i++ {
		var h uint64
		if format == RunStringsLCP {
			if h, err = r.Uvarint(); err != nil {
				return 0, 0, err
			}
			if (i == 0 && h != 0) || h > uint64(prevLen) {
				return 0, 0, ErrCorrupt
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

// EncodeStringsLCP serializes a sorted run of strings with LCP compression:
// count, then for each string the LCP with the previous string of the run
// and only the remaining suffix characters. lcps[i] must be
// LCP(ss[i-1], ss[i]); lcps[0] is ignored (the first string is always sent
// in full). This is the Step 3 exchange format of Algorithm MS with LCP
// compression and of PDMS.
func EncodeStringsLCP(ss [][]byte, lcps []int32) []byte {
	return AppendStringsLCP(make([]byte, 0, StringsLCPSize(ss, lcps)), ss, lcps)
}

// StringsLCPSize returns the exact encoded size of EncodeStringsLCP.
func StringsLCPSize(ss [][]byte, lcps []int32) int {
	total := UvarintLen(uint64(len(ss)))
	for i, s := range ss {
		h := 0
		if i > 0 {
			h = int(lcps[i])
		}
		total += UvarintLen(uint64(h)) + UvarintLen(uint64(len(s)-h)) + len(s) - h
	}
	return total
}

// AppendStringsLCP appends the EncodeStringsLCP encoding to dst and
// returns the extended slice (see AppendStrings). lcps[0] is ignored: the
// first string of a run always travels in full, so callers can pass a
// sub-slice of a larger LCP array without zeroing its boundary entry.
func AppendStringsLCP(dst []byte, ss [][]byte, lcps []int32) []byte {
	if len(ss) != len(lcps) && len(ss) > 0 {
		panic(fmt.Sprintf("wire: %d strings but %d lcps", len(ss), len(lcps)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for i, s := range ss {
		h := 0
		if i > 0 {
			h = int(lcps[i])
			if h > len(s) {
				panic(fmt.Sprintf("wire: lcp %d exceeds string length %d", h, len(s)))
			}
		}
		dst = binary.AppendUvarint(dst, uint64(h))
		dst = binary.AppendUvarint(dst, uint64(len(s)-h))
		dst = append(dst, s[h:]...)
	}
	return dst
}

// DecodeStringsLCP reverses EncodeStringsLCP, rematerializing full strings
// by copying the shared prefix from the previously decoded string. It
// returns the strings and the LCP array of the run (lcps[0] == 0).
//
// The decode is flat-arena: RunExtent validates the message and computes
// the exact total character count, then all strings are materialized as
// sub-slices of one contiguous backing buffer — three allocations per
// message instead of one per string.
func DecodeStringsLCP(msg []byte) ([][]byte, []int32, error) {
	cnt, total, err := RunExtent(RunStringsLCP, msg)
	if err != nil {
		return nil, nil, err
	}
	r := NewReader(msg)
	r.Uvarint()
	ss := make([][]byte, 0, cnt)
	lcps := make([]int32, 0, cnt)
	arena := make([]byte, 0, total)
	var prev []byte
	for i := 0; i < cnt; i++ {
		h64, _ := r.Uvarint()
		h := int(h64)
		suffix, _ := r.BytesPrefixed()
		off := len(arena)
		arena = append(arena, prev[:h]...)
		arena = append(arena, suffix...)
		end := len(arena)
		s := arena[off:end:end]
		ss = append(ss, s)
		lcps = append(lcps, int32(h))
		prev = s
	}
	if len(lcps) > 0 {
		lcps[0] = 0
	}
	return ss, lcps, nil
}

// EncodeInt32s serializes an int32 slice as varints (values must be >= 0).
func EncodeInt32s(vs []int32) []byte {
	return AppendInt32s(make([]byte, 0, Int32sSize(vs)), vs)
}

// Int32sSize returns the exact encoded size of EncodeInt32s(vs).
func Int32sSize(vs []int32) int {
	n := UvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += UvarintLen(uint64(uint32(v)))
	}
	return n
}

// AppendInt32s appends the EncodeInt32s encoding of vs to dst.
func AppendInt32s(dst []byte, vs []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// AppendInt32sRun and Int32sRunSize are the EncodeInt32s format with the
// first value transmitted as zero: the run-boundary convention of the LCP
// exchange (see AppendStringsLCP), kept here so the encoding and
// DecodeInt32s live in one package.
func AppendInt32sRun(dst []byte, vs []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for i, v := range vs {
		if i == 0 {
			v = 0
		}
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// Int32sRunSize returns the exact encoded size of AppendInt32sRun(nil, vs).
func Int32sRunSize(vs []int32) int {
	n := UvarintLen(uint64(len(vs)))
	for i, v := range vs {
		if i == 0 {
			v = 0
		}
		n += UvarintLen(uint64(uint32(v)))
	}
	return n
}

// DecodeInt32s reverses EncodeInt32s.
func DecodeInt32s(msg []byte) ([]int32, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg))+1 {
		return nil, ErrCorrupt
	}
	out := make([]int32, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, int32(uint32(v)))
	}
	return out, nil
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

// DecodeBitset reverses AppendBitset.
func DecodeBitset(msg []byte) ([]bool, error) {
	return AppendDecodeBitset(nil, msg)
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
