package codec

import (
	"bytes"
	"testing"

	"dss/internal/transport/local"
	"dss/internal/wire"
)

// fuzzSeeds are representative payload shapes: empty, tiny control
// messages, genuine front-coded string runs, plain string sets, varint
// vectors, and raw noise.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("barrier"))
	f.Add(lcpRunFrame(32))
	f.Add(wire.EncodeStrings([][]byte{[]byte("abc"), []byte("abd"), []byte("xyz")}))
	f.Add(wire.EncodeUint64s([]uint64{1, 5, 9, 1 << 40}))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x80, 0x7F}, 100))
}

// FuzzCodecRoundTrip fuzzes each codec directly: any payload a codec
// accepts must decode back bit-identically, and encoding must be a pure
// function of the payload (the wire-byte determinism the stats layer
// advertises).
func FuzzCodecRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range []func() Codec{newFlateCodec, newLCPCodec} {
			c := mk()
			enc, ok := c.Encode(nil, data)
			if !ok {
				continue // unrepresentable: the endpoint ships such frames raw
			}
			enc2, ok2 := c.Encode(nil, data)
			if !ok2 || !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: encoding not deterministic", c.Name())
			}
			dec, err := c.Decode(nil, enc, len(data))
			if err != nil {
				t.Fatalf("%s: decode failed on own encoding: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s: round trip mismatch (%d bytes in, %d out)", c.Name(), len(data), len(dec))
			}
		}
	})
}

// FuzzFrameRoundTrip fuzzes the endpoint's whole frame path — threshold
// dispatch, compression fallback, self-describing header, pooled decode —
// for every codec: decodeFrame(encodeFrame(p)) == p on arbitrary payloads,
// and frames below the threshold pass through verbatim.
func FuzzFrameRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range codecNames {
			e, err := Wrap(local.New(2).Endpoint(0), Config{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			frame := e.encodeFrame(data)
			if len(data) < minSize && (frame[0] != idRaw || !bytes.Equal(frame[1:], data)) {
				t.Fatalf("%s: sub-threshold frame not a verbatim passthrough", name)
			}
			if len(frame) > len(data)+1 {
				t.Fatalf("%s: frame overhead beyond the raw header byte: %d > %d",
					name, len(frame), len(data)+1)
			}
			got := e.decodeFrame(1, frame)
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: frame round trip mismatch (%d bytes in, %d out)", name, len(data), len(got))
			}
		}
	})
}

// FuzzLCPDecodeRobustness feeds arbitrary bytes to the lcp decoder, which
// must reject garbage with an error (never panic, never overrun) — the
// decorator turns the error into a loud failure, but only for frames a
// peer actually declared as lcp-coded.
func FuzzLCPDecodeRobustness(f *testing.F) {
	fuzzSeeds(f)
	c := newLCPCodec()
	if enc, ok := c.Encode(nil, lcpRunFrame(16)); ok {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newLCPCodec()
		out, err := c.Decode(nil, data, 4096)
		if err == nil && len(out) > 4096 {
			t.Fatalf("decode emitted %d bytes beyond the declared raw length", len(out))
		}
	})
}
