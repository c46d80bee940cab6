package stringsort

import (
	"bytes"
	"math/rand"
	"testing"

	"dss/internal/input"
	"dss/internal/transport/tcp"
)

// deterministicNoWire additionally zeroes the wire-side fields, which —
// unlike everything else in deterministic() — legitimately differ when the
// configs under comparison run DIFFERENT codecs. Comparisons across
// transports with the same codec keep using deterministic():
// wire bytes are frame-for-frame identical there.
func deterministicNoWire(st Stats) Stats {
	st = deterministic(st)
	st.WireBytes = 0
	st.WireBytesPerString = 0
	st.CompressionRatio = 0
	return st
}

// fig4Inputs builds the Figure-4 weak-scaling instance exactly as the
// repository's figure table (figureCells in bench_test.go) does.
func fig4Inputs(p, nPerPE, length int, ratio float64) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.DN(input.DNConfig{
			StringsPerPE: nPerPE, Length: length, Ratio: ratio, Seed: 1,
		}, pe, p)
	}
	return inputs
}

// TestCodecsPreserveModelStatsAndShrinkWire is the acceptance assertion of
// the wire-compression subsystem on the Fig. 4 inputs: under EVERY codec
// the model statistics (model time, bytes/string, per-phase counters) and
// the sorted output are bit-identical to the undecorated run — the codec
// layer must be invisible to the paper's accounting — while the flate and
// lcp codecs ship strictly fewer wire bytes per string than the raw model
// volume.
func TestCodecsPreserveModelStatsAndShrinkWire(t *testing.T) {
	inputs := fig4Inputs(8, 1000, 100, 0.5)
	for _, algo := range []Algorithm{MS, PDMS, MSSimple} {
		base, err := Sort(inputs, Config{Algorithm: algo, Seed: 1})
		if err != nil {
			t.Fatalf("%v baseline: %v", algo, err)
		}
		if base.Stats.WireBytes != base.Stats.BytesSent || base.Stats.CompressionRatio != 1 {
			t.Fatalf("%v: undecorated run must report wire == raw, got %d vs %d",
				algo, base.Stats.WireBytes, base.Stats.BytesSent)
		}
		for _, name := range []string{"none", "flate", "lcp"} {
			res, err := Sort(inputs, Config{Algorithm: algo, Seed: 1, Codec: name})
			if err != nil {
				t.Fatalf("%v codec %s: %v", algo, name, err)
			}
			if !equalOutputs(sortOutputs(base), sortOutputs(res)) {
				t.Fatalf("%v: output differs under codec %s", algo, name)
			}
			if deterministicNoWire(res.Stats) != deterministicNoWire(base.Stats) {
				t.Fatalf("%v: model statistics differ under codec %s:\nbase:  %+v\ncodec: %+v",
					algo, name, base.Stats, res.Stats)
			}
			switch name {
			case "none":
				if res.Stats.WireBytes != res.Stats.BytesSent {
					t.Fatalf("%v: codec none changed the wire volume", algo)
				}
			default:
				if res.Stats.WireBytes >= res.Stats.BytesSent {
					t.Fatalf("%v: codec %s did not shrink the wire: %d wire vs %d raw bytes",
						algo, name, res.Stats.WireBytes, res.Stats.BytesSent)
				}
				if res.Stats.WireBytesPerString >= base.Stats.BytesPerString {
					t.Fatalf("%v: codec %s wire bytes/str %.2f not below raw bytes/str %.2f",
						algo, name, res.Stats.WireBytesPerString, base.Stats.BytesPerString)
				}
				if r := res.Stats.CompressionRatio; r <= 0 || r >= 1 {
					t.Fatalf("%v: codec %s compression ratio %.3f out of (0,1)", algo, name, r)
				}
			}
		}
	}
}

// TestCodecIdenticalAcrossTransportsAndSeams pins the stronger invariant
// for a FIXED codec: the wire bytes themselves are deterministic — the
// same frames cross the fabric whether the substrate is in-process
// mailboxes or TCP sockets. Full Stats (including the wire fields) must
// therefore be bit-identical across both transports.
func TestCodecIdenticalAcrossTransportsAndSeams(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	inputs := genInputs(rng, 4, 130)
	for _, name := range []string{"flate", "lcp"} {
		base := Config{Algorithm: MS, Seed: 13, Validate: true, Codec: name}
		ref, err := Sort(inputs, base)
		if err != nil {
			t.Fatalf("codec %s local: %v", name, err)
		}
		cfg := base
		cfg.Transport = TransportTCP
		res, err := Sort(inputs, cfg)
		if err != nil {
			t.Fatalf("codec %s tcp: %v", name, err)
		}
		if !equalOutputs(sortOutputs(ref), sortOutputs(res)) {
			t.Fatalf("codec %s: output differs over tcp", name)
		}
		if deterministic(res.Stats) != deterministic(ref.Stats) {
			t.Fatalf("codec %s: statistics (incl. wire bytes) differ over tcp:\nlocal: %+v\ntcp:   %+v",
				name, ref.Stats, res.Stats)
		}
	}
}

// TestRunPEMatchesSortUnderCodec runs the SPMD entry point with a codec —
// the dss-worker shape, each rank decorating its own TCP endpoint — and
// requires each rank's lines to be the fragment of the in-process Sort with
// the same codec (PDMS's full strings), with bit-identical statistics
// (including the wire counters, which travel through AllgatherReport).
func TestRunPEMatchesSortUnderCodec(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(408))
	inputs := genInputs(rng, p, 120)
	cfg := Config{Algorithm: PDMS, Seed: 29, Reconstruct: true, Codec: "flate"}

	want, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatalf("in-process sort: %v", err)
	}
	if want.Stats.WireBytes >= want.Stats.BytesSent {
		t.Fatalf("flate did not shrink this instance: %d wire vs %d raw",
			want.Stats.WireBytes, want.Stats.BytesSent)
	}

	lines, sts := runPEOverTCP(t, inputs, cfg)
	for rank := 0; rank < p; rank++ {
		if !bytes.Equal(joinLines(want.PEs[rank].Strings), lines[rank]) {
			t.Fatalf("rank %d: SPMD fragment differs from Sort fragment", rank)
		}
		if deterministic(sts[rank]) != deterministic(want.Stats) {
			t.Fatalf("rank %d: SPMD statistics differ from Sort:\nsort: %+v\nspmd: %+v",
				rank, want.Stats, sts[rank])
		}
	}
}

// TestConfigRejectsUnknownCodec pins the validation path of both entry
// points.
func TestConfigRejectsUnknownCodec(t *testing.T) {
	if _, err := Sort([][][]byte{{[]byte("a")}}, Config{Codec: "zstd"}); err == nil {
		t.Fatal("Sort accepted an unknown codec")
	}
	f, err := tcp.NewLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := RunPE(f.Endpoint(0), nil, Config{Codec: "zstd"}, openOuts(t, 1, 0, "")[0]); err == nil {
		t.Fatal("RunPE accepted an unknown codec")
	}
}
