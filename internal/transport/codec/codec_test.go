package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/golomb"
	"dss/internal/stats"
	"dss/internal/transport"
	"dss/internal/transport/conformance"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
	"dss/internal/wire"
)

// codecNames are the selectable codecs the decorated backends are
// conformance-tested with.
var codecNames = []string{"none", "flate", "lcp"}

// TestConformanceDecoratedLocal runs the full transport conformance suite
// — payload isolation, non-overtaking order, tag selectivity, RecvAny
// arrival-time semantics, release recycling, concurrent stress — against
// the codec decorator over the in-process backend, once per codec. The
// decorator must be semantically invisible.
func TestConformanceDecoratedLocal(t *testing.T) {
	for _, name := range codecNames {
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, func(tb testing.TB, p int) transport.Fabric {
				f, err := WrapFabric(local.New(p), Config{Name: name})
				if err != nil {
					tb.Fatalf("wrap local fabric: %v", err)
				}
				return f
			})
		})
	}
}

// TestConformanceDecoratedTCP is the same suite over real loopback TCP
// sockets under the decorator.
func TestConformanceDecoratedTCP(t *testing.T) {
	for _, name := range codecNames {
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, func(tb testing.TB, p int) transport.Fabric {
				inner, err := tcp.NewLoopback(p)
				if err != nil {
					tb.Fatalf("loopback fabric: %v", err)
				}
				f, err := WrapFabric(inner, Config{Name: name})
				if err != nil {
					tb.Fatalf("wrap tcp fabric: %v", err)
				}
				return f
			})
		})
	}
}

// frameEndpoint builds a decorated endpoint suitable for white-box frame
// tests (the inner endpoint is only touched by decodeFrame's Release).
func frameEndpoint(t testing.TB, name string) *Endpoint {
	t.Helper()
	e, err := Wrap(local.New(2).Endpoint(0), Config{Name: name})
	if err != nil {
		t.Fatalf("wrap: %v", err)
	}
	return e
}

// lcpRunFrame builds a realistic Step-3 exchange frame: a front-coded run
// of sorted strings sharing prefixes, exactly as wire.AppendStringsLCP
// ships them.
func lcpRunFrame(n int) []byte {
	ss := make([][]byte, n)
	lcps := make([]int32, n)
	prev := ""
	for i := range ss {
		s := fmt.Sprintf("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaprefix-%06d-suffix-payload", i*3)
		h := 0
		for h < len(s) && h < len(prev) && s[h] == prev[h] {
			h++
		}
		ss[i] = []byte(s)
		lcps[i] = int32(h)
		prev = s
	}
	return wire.AppendStringsLCP(nil, ss, lcps)
}

// TestFramePassthroughBelowThreshold pins the size threshold: frames
// smaller than minSize ship raw behind the 1-byte header, bit-identical to
// the payload.
func TestFramePassthroughBelowThreshold(t *testing.T) {
	for _, name := range []string{"flate", "lcp"} {
		e := frameEndpoint(t, name)
		data := []byte("short control message")
		frame := e.encodeFrame(data)
		if frame[0] != idRaw {
			t.Fatalf("%s: small frame compressed (id %d)", name, frame[0])
		}
		if !bytes.Equal(frame[1:], data) {
			t.Fatalf("%s: passthrough frame not verbatim", name)
		}
		if got := e.decodeFrame(1, frame); !bytes.Equal(got, data) {
			t.Fatalf("%s: passthrough decode mismatch: %q", name, got)
		}
	}
}

// TestFrameCompressesRedundantPayload checks the win case: a redundant
// payload above the threshold must ship strictly smaller than raw framing
// and decode to the identical payload.
func TestFrameCompressesRedundantPayload(t *testing.T) {
	payloads := map[string][]byte{
		"flate": bytes.Repeat([]byte("the same twelve bytes again and again "), 64),
		"lcp":   lcpRunFrame(200),
	}
	for name, data := range payloads {
		e := frameEndpoint(t, name)
		frame := e.encodeFrame(data)
		if frame[0] == idRaw {
			t.Fatalf("%s: redundant %d-byte payload shipped raw", name, len(data))
		}
		if len(frame) >= len(data)+1 {
			t.Fatalf("%s: frame (%d bytes) not smaller than raw framing (%d)", name, len(frame), len(data)+1)
		}
		if got := e.decodeFrame(1, frame); !bytes.Equal(got, data) {
			t.Fatalf("%s: decode mismatch", name)
		}
	}
}

// TestFrameFallsBackOnIncompressibleData checks the loss case: a
// high-entropy payload must fall back to the raw frame — the codec header
// is the only overhead a hostile workload can ever pay.
func TestFrameFallsBackOnIncompressibleData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 4096)
	rng.Read(data)
	for _, name := range []string{"flate", "lcp"} {
		e := frameEndpoint(t, name)
		frame := e.encodeFrame(data)
		if frame[0] != idRaw {
			t.Fatalf("%s: incompressible payload shipped compressed and necessarily larger", name)
		}
		if len(frame) != len(data)+1 {
			t.Fatalf("%s: raw frame is %d bytes, want %d", name, len(frame), len(data)+1)
		}
	}
}

// TestLCPCodecTargetsStringRuns pins the front-coding codec's dual-mode
// dispatch: a genuine Step-3 run takes the structural Golomb-repack path
// (and shrinks), while structurally different messages — fixed-width
// fingerprint sets, runs with a satellite column — take the whole-frame deflate
// fallback, each marked by the leading mode byte and both round-tripping
// byte-identically.
func TestLCPCodecTargetsStringRuns(t *testing.T) {
	c := newLCPCodec()
	run := lcpRunFrame(128)
	enc, ok := c.Encode(nil, run)
	if !ok {
		t.Fatal("string run rejected by lcp codec")
	}
	if enc[0] != modeRun {
		t.Fatalf("string run took mode %d, want structural mode %d", enc[0], modeRun)
	}
	if len(enc) >= len(run) {
		t.Fatalf("lcp codec grew a front-coded run: %d -> %d bytes", len(run), len(enc))
	}
	dec, err := c.Decode(nil, enc, len(run))
	if err != nil || !bytes.Equal(dec, run) {
		t.Fatalf("lcp round trip failed: err=%v", err)
	}

	// Determinism: wire byte totals are advertised as deterministic, so
	// the same payload must encode to the same bytes every time.
	enc2, ok := c.Encode(nil, run)
	if !ok || !bytes.Equal(enc, enc2) {
		t.Fatal("lcp encoding not deterministic")
	}

	// A fixed-width fingerprint message is not a string run; it must take
	// the deflate fallback and still round-trip byte-identically.
	fp := wire.AppendUintsFixed(nil, make([]uint64, 300), 8)
	encFP, ok := c.Encode(nil, fp)
	if !ok {
		t.Fatal("fingerprint frame rejected by dual-mode lcp codec")
	}
	if encFP[0] != modeFlate {
		t.Fatalf("fingerprint frame took mode %d, want fallback mode %d", encFP[0], modeFlate)
	}
	decFP, err := c.Decode(nil, encFP, len(fp))
	if err != nil || !bytes.Equal(decFP, fp) {
		t.Fatalf("lcp fallback round trip failed: err=%v", err)
	}
}

// TestLCPDecodeRejectsWrappingSuffixLengths pins a corrupt-frame case the
// structural decoder must reject rather than panic on: declared suffix
// lengths whose uint64 sum wraps around (5 + 2^64-2 ≡ 3) would otherwise
// slip past the total-length bound and overrun the 3-byte suffix region in
// the re-emit pass.
func TestLCPDecodeRejectsWrappingSuffixLengths(t *testing.T) {
	const mh, mn = uint64(1), uint64(1) << 62
	bw := golomb.NewBitWriter(8)
	bw.WriteGolomb(0, mh)
	bw.WriteGolomb(5, mn)
	bw.WriteGolomb(0, mh)
	bw.WriteGolomb(^uint64(0)-1, mn) // 2^64-2: wraps sumN to 3
	bits := bw.Bytes()

	frame := []byte{modeRun}
	frame = binary.AppendUvarint(frame, 2)
	frame = binary.AppendUvarint(frame, mh)
	frame = binary.AppendUvarint(frame, mn)
	frame = binary.AppendUvarint(frame, uint64(len(bits)))
	frame = append(frame, bits...)
	frame = append(frame, 0)                // sufRaw
	frame = append(frame, []byte("abc")...) // 3 bytes: matches wrapped sum

	c := newLCPCodec()
	if _, err := c.Decode(nil, frame, 8); err == nil {
		t.Fatal("wrapping suffix lengths accepted")
	}
}

// TestWireMetering checks the decorator's accounting channel: remote
// frames bill their true wire size to the sending PE's total, self-sends
// and receives bill nothing.
func TestWireMetering(t *testing.T) {
	f, err := WrapFabric(local.New(2), Config{Name: "flate"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e0 := f.Endpoint(0).(*Endpoint)
	e1 := f.Endpoint(1).(*Endpoint)
	pe0, pe1 := &stats.PE{}, &stats.PE{}
	e0.BindWireStats(pe0)
	e1.BindWireStats(pe1)

	small := []byte("tiny")
	big := bytes.Repeat([]byte("abcdefgh"), 1024)
	e0.Send(0, 1, big) // self-send: not metered
	e0.Release(e0.Recv(0, 1))
	e0.Send(1, 2, small)
	e0.Send(1, 2, big)
	got1 := e1.Recv(0, 2)
	got2 := e1.Recv(0, 2)
	if !bytes.Equal(got1, small) || !bytes.Equal(got2, big) {
		t.Fatal("payloads corrupted")
	}

	sent := pe0.WireSent
	wantSmall := int64(len(small)) + 1 // below threshold: raw frame
	if sent <= wantSmall {
		t.Fatalf("wire sent %d: big frame not metered", sent)
	}
	if sent >= wantSmall+int64(len(big)) {
		t.Fatalf("wire sent %d: compression not reflected (raw would be %d)",
			sent, wantSmall+int64(len(big)))
	}
	if pe1.WireSent != 0 {
		t.Fatalf("receiver metered %d wire bytes", pe1.WireSent)
	}
}

// TestParseAndNames pins the registry surface the CLI flags build on.
func TestParseAndNames(t *testing.T) {
	for in, want := range map[string]string{
		"": "none", "none": "none", "FLATE": "flate", " lcp ": "lcp",
	} {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Parse("zstd"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if Names() != "none, flate, lcp" {
		t.Fatalf("Names() = %q", Names())
	}
}
