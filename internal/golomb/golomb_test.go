package golomb

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundtrip(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(1, 1)
	w.WriteBits(0, 1)
	w.WriteBits(0b10110, 5)
	w.WriteUnary(7)
	w.WriteBits(0xdead, 16)
	r := NewBitReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("bit 0")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("bit 1")
	}
	if v, _ := r.ReadBits(5); v != 0b10110 {
		t.Fatalf("bits = %b", v)
	}
	if q, _ := r.ReadUnary(); q != 7 {
		t.Fatalf("unary = %d", q)
	}
	if v, _ := r.ReadBits(16); v != 0xdead {
		t.Fatalf("field = %x", v)
	}
}

func TestBitReaderEOF(t *testing.T) {
	r := NewBitReader(nil)
	if _, err := r.ReadBit(); err != ErrCorrupt {
		t.Fatalf("err = %v", err)
	}
	w := &BitWriter{}
	w.WriteUnary(3)
	r = NewBitReader(w.Bytes())
	r.ReadUnary()
	// Padding zeros decode as unary 0s until exhaustion; eventually EOF.
	for i := 0; i < 20; i++ {
		if _, err := r.ReadBit(); err != nil {
			return
		}
	}
	t.Fatal("no EOF after stream end")
}

func TestGolombValueRoundtripAllM(t *testing.T) {
	for _, m := range []uint64{1, 2, 3, 4, 5, 7, 8, 13, 64, 100, 1 << 20} {
		w := &BitWriter{}
		vals := []uint64{0, 1, 2, 3, m - 1, m, m + 1, 2*m + 3, 1000000}
		for _, v := range vals {
			encodeValue(w, v, m)
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := decodeValue(r, m)
			if err != nil || got != v {
				t.Fatalf("m=%d: got %d (%v), want %d", m, got, err, v)
			}
		}
	}
}

func TestEncodeSortedRoundtrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{},
		{0},
		{42},
		{1, 1, 1, 1},
		{0, 1, 2, 3, 4, 5},
		{5, 1000, 1000, 123456789, 1 << 62},
	}
	for _, vals := range cases {
		got, err := DecodeSorted(EncodeSorted(vals))
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("count %d, want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%v: position %d = %d", vals, i, got[i])
			}
		}
	}
}

func TestEncodeSortedQuick(t *testing.T) {
	f := func(raw []uint64) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		got, err := DecodeSorted(EncodeSorted(raw))
		if err != nil || len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGolombCompressesUniformHashes(t *testing.T) {
	// n sorted uniform 64-bit values: raw encoding costs 8 bytes each;
	// Golomb delta coding should get close to the entropy
	// log2(range/n) + ~1.5 bits ≈ 64 - log2(n) + 1.5 bits per value.
	rng := rand.New(rand.NewSource(31))
	n := 10000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	enc := EncodeSorted(vals)
	bitsPer := float64(len(enc)*8) / float64(n)
	if bitsPer > 56 {
		t.Fatalf("golomb coding ineffective: %.1f bits/value", bitsPer)
	}
	if bitsPer < 45 {
		t.Fatalf("suspiciously small: %.1f bits/value (entropy ≈ 52.2)", bitsPer)
	}
}

func TestGolombDenseSequenceCompressesHard(t *testing.T) {
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = uint64(i * 3)
	}
	enc := EncodeSorted(vals)
	if len(enc)*8 > 5*len(vals) {
		t.Fatalf("dense sequence: %d bits for %d values", len(enc)*8, len(vals))
	}
	got, err := DecodeSorted(enc)
	if err != nil || len(got) != len(vals) {
		t.Fatal("roundtrip failed")
	}
}

func TestChooseM(t *testing.T) {
	if ChooseM(0, 10) != 1 {
		t.Fatal("zero span must clamp to 1")
	}
	if ChooseM(1000, 0) != 1 {
		t.Fatal("zero count must clamp to 1")
	}
	m := ChooseM(1<<40, 1000)
	if m < 1<<28 || m > 1<<31 {
		t.Fatalf("M = %d out of plausible range", m)
	}
}

func TestDecodeSortedCorrupt(t *testing.T) {
	// Claim many values with no payload.
	msg := EncodeSorted([]uint64{1, 2, 3})
	if _, err := DecodeSorted(msg[:2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestEncodeSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted input accepted")
		}
	}()
	EncodeSorted([]uint64{5, 3})
}

// wrapMessage hand-assembles an EncodeSorted-format message of two values
// with parameter M = 2⁶³: first, then one gap of quotient q and remainder
// rem (63 bits wide at this M).
func wrapMessage(first, q, rem uint64) []byte {
	const m = 1 << 63
	hdr := binary.AppendUvarint(nil, 2)
	hdr = binary.AppendUvarint(hdr, m)
	hdr = binary.AppendUvarint(hdr, first)
	w := &BitWriter{}
	w.WriteUnary(q)
	w.WriteBits(rem, 63) // ⌈log2 M⌉ = 63 and no short codewords at a power of two
	return append(hdr, w.Bytes()...)
}

// TestDecodeSortedRejectsWrap: a gap that carries the running value past
// 64 bits, or a quotient whose product with M does, used to decode to a
// non-monotone (or silently wrong) sequence with a nil error. A receiver
// that merges decoded lists relies on every accepted output ascending.
func TestDecodeSortedRejectsWrap(t *testing.T) {
	cases := map[string][]byte{
		"prev+gap wraps: 2^63 + 2^63":    wrapMessage(1<<63, 1, 0),
		"q*m wraps: 2 * 2^63":            wrapMessage(5, 2, 0),
		"q*m wraps to a gap: 3 * 2^63":   wrapMessage(5, 3, 0),
		"q*m+rem wraps: 2^63 + 2^63 - 1": wrapMessage(1<<63, 1, 1<<63-1),
	}
	for name, msg := range cases {
		if got, err := DecodeSorted(msg); err != ErrCorrupt {
			t.Errorf("%s: decoded to %v, err %v; want ErrCorrupt", name, got, err)
		}
	}
	// The largest gap that still fits is accepted.
	got, err := DecodeSorted(wrapMessage(1<<63-1, 1, 0))
	if err != nil || len(got) != 2 || got[1] != 1<<64-1 {
		t.Fatalf("2^63-1 + 2^63 = %v, %v; want the maximum value", got, err)
	}
}

func TestAppendDecodeSortedExtends(t *testing.T) {
	dst := []uint64{7, 7}
	dst, err := AppendDecodeSorted(dst, EncodeSorted([]uint64{1, 5, 5}))
	if err != nil || !slices.Equal(dst, []uint64{7, 7, 1, 5, 5}) {
		t.Fatalf("got %v, %v", dst, err)
	}
	if dst, err = AppendDecodeSorted(dst, EncodeSorted(nil)); err != nil || len(dst) != 5 {
		t.Fatalf("empty message changed dst: %v, %v", dst, err)
	}
}

// FuzzDecodeSorted feeds arbitrary bytes to the decoder: it must either
// fail or return an ascending slice of the declared length whose
// re-encoding decodes to itself.
func FuzzDecodeSorted(f *testing.F) {
	f.Add(EncodeSorted([]uint64{1, 1, 2, 1 << 40, 1 << 62}))
	f.Add(EncodeSorted([]uint64{42}))
	f.Add(EncodeSorted(nil))
	f.Add(wrapMessage(1<<63, 1, 0))
	f.Add(wrapMessage(5, 3, 0))
	f.Add([]byte{0xff, 0xff, 0x03, 0x01, 0x00, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, msg []byte) {
		got, err := DecodeSorted(msg)
		if err != nil {
			return
		}
		declared, _ := binary.Uvarint(msg)
		if uint64(len(got)) != declared {
			t.Fatalf("%d values, header declares %d", len(got), declared)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("accepted a non-monotone sequence: %v", got)
		}
		again, err := DecodeSorted(EncodeSorted(got))
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("re-encoding decodes to %v (%v), want %v", again, err, got)
		}
	})
}

// sink keeps the benchmarked calls' results alive.
var sink int

// benchLists are the two shapes PDMS-Golomb ships: sorted uniform 64-bit
// fingerprints, and the list of one fingerprint repeated (every candidate
// shares its prefix, every gap is 0).
func benchLists() map[string][]uint64 {
	const n = 125000
	rng := rand.New(rand.NewSource(1))
	uniform, equal := make([]uint64, n), make([]uint64, n)
	for i := range uniform {
		uniform[i] = rng.Uint64()
		equal[i] = 0x9e3779b97f4a7c15
	}
	slices.Sort(uniform)
	return map[string][]uint64{"uniform": uniform, "equal": equal}
}

func BenchmarkEncodeSorted(b *testing.B) {
	for name, vals := range benchLists() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(vals)))
			for i := 0; i < b.N; i++ {
				sink += len(EncodeSorted(vals))
			}
			b.ReportMetric(float64(b.N)*float64(len(vals))/b.Elapsed().Seconds()/1e6, "Mvals/s")
		})
	}
}

func BenchmarkDecodeSorted(b *testing.B) {
	for name, vals := range benchLists() {
		b.Run(name, func(b *testing.B) {
			msg := EncodeSorted(vals)
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(vals)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := DecodeSorted(msg)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(got)
			}
			b.ReportMetric(float64(b.N)*float64(len(vals))/b.Elapsed().Seconds()/1e6, "Mvals/s")
		})
	}
}
