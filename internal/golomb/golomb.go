// Package golomb implements bit-level Golomb coding of monotone integer
// sequences. PDMS-Golomb uses it to compress the sorted fingerprint sets
// exchanged by the distributed duplicate detection (Section VI-A of the
// paper, following [Sanders, Schlag, Müller 2013]): deltas of sorted
// uniformly-distributed hashes are geometrically distributed, for which
// Golomb codes with parameter M ≈ 0.69·(mean gap) are near-optimal.
package golomb

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"dss/internal/wire"
)

// ErrCorrupt is returned when a decode reads past the end of the stream or
// a decoded value does not fit 64 bits.
var ErrCorrupt = errors.New("golomb: corrupt stream")

// BitWriter appends single bits and fixed-width bit fields to a byte slice,
// most-significant-bit first within each byte. Bits accumulate in a 64-bit
// word and are flushed to the byte slice eight bytes' worth at a time, so a
// WriteBits or unary-run call costs O(1) instead of one shift per bit. The
// zero value is ready to use.
type BitWriter struct {
	buf []byte
	acc uint64 // pending bits, MSB-aligned: the top n bits are valid
	n   uint   // number of pending bits in acc (0..7 between calls)
}

// NewBitWriter returns a writer whose byte buffer is pre-sized to hold
// sizeHint bytes, avoiding growth reallocations when the caller can
// estimate the final code length.
func NewBitWriter(sizeHint int) *BitWriter {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &BitWriter{buf: make([]byte, 0, sizeHint)}
}

// flush moves all complete bytes from the accumulator to the buffer,
// leaving at most 7 pending bits.
func (w *BitWriter) flush() {
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
		w.n -= 8
	}
}

// WriteBits appends the low n bits of v, most significant first (n ≤ 64).
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if w.n+n > 64 {
		// Up to 7 pending bits plus up to 64 new ones: split the field.
		half := n / 2
		w.WriteBits(v>>half, n-half)
		w.WriteBits(v, half)
		return
	}
	w.acc |= v << (64 - w.n - n)
	w.n += n
	w.flush()
}

// WriteUnary appends q 1-bits followed by a terminating 0-bit, emitting up
// to 32 bits per step.
func (w *BitWriter) WriteUnary(q uint64) {
	for q >= 32 {
		w.WriteBits(0xFFFFFFFF, 32)
		q -= 32
	}
	// q ones followed by the terminating zero, in one field of q+1 bits.
	w.WriteBits(1<<(q+1)-2, uint(q)+1)
}

// Bytes returns the encoded stream (the last byte is zero-padded). The
// writer remains usable: further writes continue the unpadded stream. The
// padding byte is appended with the buffer's capacity clipped, so a
// returned snapshot is never mutated by later writes.
func (w *BitWriter) Bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	return append(w.buf[:len(w.buf):len(w.buf)], byte(w.acc>>56))
}

// BitReader consumes a stream produced by BitWriter. It keeps up to 64
// look-ahead bits in an accumulator refilled eight bytes at a time, so
// field reads and unary runs cost O(1) per call instead of per bit.
type BitReader struct {
	buf []byte
	pos int    // next byte to load into the accumulator
	acc uint64 // look-ahead bits, MSB-aligned: the top n bits are valid
	n   uint   // number of valid bits in acc
}

// NewBitReader returns a reader over the stream.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// refill tops the accumulator up to at least 57 valid bits (or to end of
// stream).
func (r *BitReader) refill() {
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// ReadBit reads one bit.
func (r *BitReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// ReadBits reads an n-bit big-endian field (n ≤ 64).
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 56 {
		// A refill tops the accumulator up to 57..64 bits, which cannot be
		// guaranteed to cover the widest fields: read them in two halves.
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	if r.n < n {
		r.refill()
		if r.n < n {
			return 0, ErrCorrupt
		}
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v, nil
}

// ReadUnary reads a unary-coded quotient, consuming whole runs of 1-bits
// per accumulator refill via leading-zero counting.
func (r *BitReader) ReadUnary() (uint64, error) {
	var q uint64
	for {
		if r.n == 0 {
			r.refill()
			if r.n == 0 {
				return 0, ErrCorrupt
			}
		}
		// Leading ones of the valid window = leading zeros of ^acc; the
		// invalid low bits of acc are zero, so ^acc is one there and the
		// count never overshoots r.n by more than the window end.
		ones := uint(bits.LeadingZeros64(^r.acc))
		if ones >= r.n {
			// Every valid bit is a one: consume them all and refill.
			q += uint64(r.n)
			r.acc, r.n = 0, 0
			continue
		}
		// ones 1-bits followed by the terminating 0-bit.
		q += uint64(ones)
		r.acc <<= ones + 1
		r.n -= ones + 1
		return q, nil
	}
}

// WriteGolomb appends one Golomb-coded value with parameter m (m ≥ 1).
// Exported for codecs that interleave Golomb fields with other bit data
// (the transport codec layer's LCP front-coding codec); EncodeSorted
// remains the one-shot API for whole monotone sequences.
func (w *BitWriter) WriteGolomb(v, m uint64) { encodeValue(w, v, m) }

// ReadGolomb reads one Golomb-coded value with parameter m, the inverse of
// WriteGolomb.
func (r *BitReader) ReadGolomb(m uint64) (uint64, error) { return decodeValue(r, m) }

// encodeValue writes v with Golomb parameter m (m ≥ 1): quotient v/m in
// unary, remainder by truncated binary coding.
func encodeValue(w *BitWriter, v, m uint64) {
	q := v / m
	rem := v % m
	w.WriteUnary(q)
	if m == 1 {
		return
	}
	b := uint(bits.Len64(m - 1)) // ⌈log2 m⌉
	cutoff := uint64(1)<<b - m   // number of short codewords
	if rem < cutoff {
		w.WriteBits(rem, b-1)
	} else {
		w.WriteBits(rem+cutoff, b)
	}
}

// decodeValue reads one Golomb-coded value with parameter m. A quotient
// whose product with m leaves 64 bits is ErrCorrupt: no encoder wrote it.
func decodeValue(r *BitReader, m uint64) (uint64, error) {
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if m == 1 {
		return q, nil
	}
	b := uint(bits.Len64(m - 1))
	cutoff := uint64(1)<<b - m
	rem, err := r.ReadBits(b - 1)
	if err != nil {
		return 0, err
	}
	if rem >= cutoff {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = rem<<1 | uint64(bit)
		rem -= cutoff
	}
	hi, lo := bits.Mul64(q, m)
	v, carry := bits.Add64(lo, rem, 0)
	if hi|carry != 0 {
		return 0, ErrCorrupt
	}
	return v, nil
}

// ChooseM returns the Golomb parameter for n values spread over the range
// [0, span]: M ≈ ln(2) · span/n, clamped to ≥ 1. This is the near-optimal
// choice for geometrically distributed gaps of sorted uniform values.
func ChooseM(span uint64, n int) uint64 {
	if n <= 0 {
		return 1
	}
	m := uint64(float64(span) / float64(n) * 0.6931471805599453)
	if m < 1 {
		m = 1
	}
	return m
}

// EncodeSorted Golomb-codes an ascending (not necessarily strictly) uint64
// sequence: header (count, M, first value), then delta-coded gaps. The
// caller must pass a sorted slice; duplicates are allowed (gap 0).
func EncodeSorted(vals []uint64) []byte {
	return AppendEncodeSorted(nil, vals)
}

// AppendEncodeSorted appends the EncodeSorted message of vals to dst, so a
// sender can pack several lists into one buffer.
func AppendEncodeSorted(dst []byte, vals []uint64) []byte {
	if len(vals) == 0 {
		return append(dst, 0)
	}
	span := vals[len(vals)-1] - vals[0]
	m := ChooseM(span, len(vals))
	// Upper bound on the code length: the quotients sum to at most span/m
	// ≈ n/ln 2 bits of unary, plus one terminator and one ⌈log2 m⌉-bit
	// remainder per value. Header and bit stream share the one buffer.
	remBits := uint64(bits.Len64(m-1)) + 1
	estBits := span/m + uint64(len(vals)-1)*remBits
	w := BitWriter{buf: slices.Grow(dst, 3*binary.MaxVarintLen64+int(estBits/8)+1)}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(vals)))
	w.buf = binary.AppendUvarint(w.buf, m)
	w.buf = binary.AppendUvarint(w.buf, vals[0])
	prev := vals[0]
	for _, v := range vals[1:] {
		if v < prev {
			panic("golomb: EncodeSorted input not sorted")
		}
		encodeValue(&w, v-prev, m)
		prev = v
	}
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc>>56)) // zero-padded last byte
	}
	return w.buf
}

// DecodeSorted reverses EncodeSorted.
func DecodeSorted(msg []byte) ([]uint64, error) {
	return AppendDecodeSorted(nil, msg)
}

// AppendDecodeSorted decodes an EncodeSorted message onto the end of dst and
// returns the extended slice (dst itself when the message holds no values).
// Every accepted message yields an ascending sequence: a gap that would
// carry the running value past 64 bits is ErrCorrupt, so a receiver may
// merge decoded lists without re-checking their order.
func AppendDecodeSorted(dst []uint64, msg []byte) ([]uint64, error) {
	r := wire.NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, ErrCorrupt
	}
	if cnt == 0 {
		return dst, nil
	}
	if cnt > uint64(len(msg))*9 { // each value needs ≥ 1 bit
		return nil, ErrCorrupt
	}
	m, err := r.Uvarint()
	if err != nil || m == 0 {
		return nil, ErrCorrupt
	}
	first, err := r.Uvarint()
	if err != nil {
		return nil, ErrCorrupt
	}
	rest, err := r.Raw(r.Remaining())
	if err != nil {
		return nil, ErrCorrupt
	}
	dst = append(slices.Grow(dst, int(cnt)), first)
	br := BitReader{buf: rest}
	prev := first
	for i := uint64(1); i < cnt; i++ {
		gap, err := decodeValue(&br, m)
		if err != nil {
			return nil, err
		}
		var carry uint64
		if prev, carry = bits.Add64(prev, gap, 0); carry != 0 {
			return nil, ErrCorrupt
		}
		dst = append(dst, prev)
	}
	return dst, nil
}
