// The LCP front-coding-aware codec. The Step-3 exchange frames of MS are
// already front-coded by the wire package — per string a uvarint LCP with
// the predecessor, a uvarint suffix length, and the suffix characters —
// but the header varints still cost whole bytes and the suffix characters
// still ship verbatim. This codec understands that structure: a frame that
// parses as a canonical string run has its (lcp, length) header pairs
// re-packed as Golomb codes in a single bit stream (reusing
// internal/golomb's word-buffered bit I/O) and its concatenated suffix
// characters deflated separately, which compresses better once the
// interleaved varints are out of the way.
//
// Frames with any other structure — runs with a satellite column (PDMS's
// prefixes with their origins, hQuick's tagged strings), plain
// (non-front-coded) string sets, splitter samples, fingerprint vectors —
// fall back to whole-frame deflate inside the same codec id; a leading
// mode byte tells the decoder which path ran. The codec is therefore never
// worse than flate by more than the mode byte, and strictly better exactly
// where the front-coded structure it understands dominates the frame.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dss/internal/golomb"
	"dss/internal/wire"
)

// errCorrupt is returned for undecodable LCP frames; the decorator treats
// it as an infrastructure error and panics like the transports do.
var errCorrupt = errors.New("codec: corrupt lcp frame")

// Modes of an lcp-coded frame (the first payload byte).
const (
	modeRun   byte = 0 // structural: Golomb headers + deflated suffixes
	modeFlate byte = 1 // fallback: whole frame deflated
)

// Suffix-region encodings inside a modeRun frame.
const (
	sufRaw   byte = 0 // suffix characters stored verbatim
	sufFlate byte = 1 // suffix characters deflate-compressed
)

type lcpCodec struct {
	flate *flateCodec // reused for the suffix character region
	suf   []byte      // suffix concatenation arena, reused across frames
}

func newLCPCodec() Codec {
	return &lcpCodec{flate: newFlateCodec().(*flateCodec)}
}

func (c *lcpCodec) ID() byte     { return idLCP }
func (c *lcpCodec) Name() string { return "lcp" }

// canonUvarint decodes a uvarint and reports its width, accepting only the
// canonical (minimal-length) encoding. Round-trip identity of Decode
// depends on this: the decoder re-emits canonical varints, so a frame that
// merely HAPPENS to parse but uses padded varints must be rejected here
// and shipped raw instead.
func canonUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != wire.UvarintLen(v) {
		return 0, 0
	}
	return v, n
}

// parseRun is the strict structural pass over a candidate string-run
// frame. It returns ok=false unless the whole frame is exactly a count
// followed by count (lcp, suffix-length, suffix) records with canonical
// varints. The lcp bound rejects values that cannot occur in a real run
// (an LCP never exceeds the frame that carries the string), which also
// bounds the Golomb quotients below.
func parseRun(src []byte) (cnt, sumH, sumN uint64, ok bool) {
	cnt, n := canonUvarint(src)
	if n == 0 || cnt > uint64(len(src)) {
		return 0, 0, 0, false
	}
	pos := n
	for i := uint64(0); i < cnt; i++ {
		h, hn := canonUvarint(src[pos:])
		if hn == 0 || h > uint64(len(src)) {
			return 0, 0, 0, false
		}
		pos += hn
		l, ln := canonUvarint(src[pos:])
		if ln == 0 {
			return 0, 0, 0, false
		}
		pos += ln
		if l > uint64(len(src)-pos) {
			return 0, 0, 0, false
		}
		pos += int(l)
		sumH += h
		sumN += l
	}
	if pos != len(src) {
		return 0, 0, 0, false
	}
	return cnt, sumH, sumN, true
}

// Encode dispatches on the frame's structure: string runs take the
// structural path, everything else deflates whole.
func (c *lcpCodec) Encode(dst, src []byte) ([]byte, bool) {
	if cnt, sumH, sumN, ok := parseRun(src); ok && cnt > 0 {
		return c.encodeRun(append(dst, modeRun), src, cnt, sumH, sumN)
	}
	mark := len(dst)
	out, ok := c.flate.Encode(append(dst, modeFlate), src)
	if !ok {
		return dst[:mark], false
	}
	return out, true
}

// encodeRun re-packs a front-coded string run:
//
//	uvarint count | uvarint Mh | uvarint Mn | uvarint bitLen |
//	bit stream of count (golomb(lcp, Mh), golomb(len, Mn)) pairs |
//	suffix-flag byte | suffix characters (raw or deflated)
func (c *lcpCodec) encodeRun(dst, src []byte, cnt, sumH, sumN uint64) ([]byte, bool) {
	mh := golomb.ChooseM(sumH, int(cnt))
	mn := golomb.ChooseM(sumN, int(cnt))

	// Second pass: split headers from characters. The canonical checks
	// already passed, so plain Uvarint reads cannot fail here.
	bw := golomb.NewBitWriter(int(cnt)) // ≈1 byte per value for typical runs
	c.suf = c.suf[:0]
	_, pos := binary.Uvarint(src)
	for i := uint64(0); i < cnt; i++ {
		h, hn := binary.Uvarint(src[pos:])
		pos += hn
		bw.WriteGolomb(h, mh)
		l, ln := binary.Uvarint(src[pos:])
		pos += ln
		bw.WriteGolomb(l, mn)
		c.suf = append(c.suf, src[pos:pos+int(l)]...)
		pos += int(l)
	}
	bits := bw.Bytes()

	dst = binary.AppendUvarint(dst, cnt)
	dst = binary.AppendUvarint(dst, mh)
	dst = binary.AppendUvarint(dst, mn)
	dst = binary.AppendUvarint(dst, uint64(len(bits)))
	dst = append(dst, bits...)
	// Suffix region: deflate when it wins, verbatim otherwise (short runs
	// of already-high-entropy characters can be incompressible).
	mark := len(dst)
	dst = append(dst, sufFlate)
	if packed, ok := c.flate.Encode(dst, c.suf); ok && len(packed)-mark-1 < len(c.suf) {
		return packed, true
	}
	dst = dst[:mark]
	dst = append(dst, sufRaw)
	dst = append(dst, c.suf...)
	return dst, true
}

// Decode rebuilds the original frame byte for byte, dispatching on the
// leading mode byte the encoder wrote.
func (c *lcpCodec) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, errCorrupt
	}
	mode := src[0]
	src = src[1:]
	switch mode {
	case modeRun:
		return c.decodeRun(dst, src, rawLen)
	case modeFlate:
		return c.flate.Decode(dst, src, rawLen)
	default:
		return dst, errCorrupt
	}
}

// decodeRun rebuilds a structurally re-packed front-coded string run.
func (c *lcpCodec) decodeRun(dst, src []byte, rawLen int) ([]byte, error) {
	cnt, n := binary.Uvarint(src)
	if n <= 0 || cnt == 0 || cnt > uint64(rawLen) {
		return dst, errCorrupt
	}
	pos := n
	mh, n := binary.Uvarint(src[pos:])
	if n <= 0 || mh == 0 {
		return dst, errCorrupt
	}
	pos += n
	mn, n := binary.Uvarint(src[pos:])
	if n <= 0 || mn == 0 {
		return dst, errCorrupt
	}
	pos += n
	bsLen, n := binary.Uvarint(src[pos:])
	if n <= 0 || bsLen > uint64(len(src)-pos-n) {
		return dst, errCorrupt
	}
	pos += n
	bits := src[pos : pos+int(bsLen)]
	pos += int(bsLen)

	// First pass over the bit stream: total suffix length, so the suffix
	// region can be decoded (and validated) up front.
	br := golomb.NewBitReader(bits)
	var sumN uint64
	for i := uint64(0); i < cnt; i++ {
		if _, err := br.ReadGolomb(mh); err != nil {
			return dst, err
		}
		l, err := br.ReadGolomb(mn)
		if err != nil {
			return dst, err
		}
		// Bound before accumulating: a huge declared length must not wrap
		// sumN around and slip past the total check (sumN ≤ rawLen holds on
		// entry, so the subtraction cannot underflow).
		if l > uint64(rawLen)-sumN {
			return dst, errCorrupt
		}
		sumN += l
	}

	if pos >= len(src) { // at least the suffix-flag byte must remain
		return dst, errCorrupt
	}
	flag := src[pos]
	pos++
	var suffix []byte
	switch flag {
	case sufRaw:
		suffix = src[pos:]
		if uint64(len(suffix)) != sumN {
			return dst, errCorrupt
		}
	case sufFlate:
		c.suf = c.suf[:0]
		var err error
		c.suf, err = c.flate.Decode(c.suf, src[pos:], int(sumN))
		if err != nil {
			return dst, fmt.Errorf("codec: lcp suffix region: %w", err)
		}
		suffix = c.suf
	default:
		return dst, errCorrupt
	}

	// Second pass: re-emit the original canonical frame. The bit stream
	// was fully validated by the first pass, so these reads cannot fail.
	br = golomb.NewBitReader(bits)
	dst = binary.AppendUvarint(dst, cnt)
	spos := 0
	for i := uint64(0); i < cnt; i++ {
		h, _ := br.ReadGolomb(mh)
		l, _ := br.ReadGolomb(mn)
		dst = binary.AppendUvarint(dst, h)
		dst = binary.AppendUvarint(dst, l)
		dst = append(dst, suffix[spos:spos+int(l)]...)
		spos += int(l)
	}
	if spos != len(suffix) {
		return dst, errCorrupt
	}
	return dst, nil
}
