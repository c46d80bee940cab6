package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBufferRoundtripPrimitives(t *testing.T) {
	w := NewBuffer(0)
	w.Uvarint(0)
	w.Uvarint(1)
	w.Uvarint(1<<63 + 5)
	w.Uint64(0xdeadbeefcafebabe)
	w.BytesPrefixed([]byte("hello"))
	w.BytesPrefixed(nil)
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	for _, want := range []uint64{0, 1, 1<<63 + 5} {
		got, err := r.Uvarint()
		if err != nil || got != want {
			t.Fatalf("Uvarint = %d, %v; want %d", got, err, want)
		}
	}
	if got, err := r.Uint64(); err != nil || got != 0xdeadbeefcafebabe {
		t.Fatalf("Uint64 = %x, %v", got, err)
	}
	if got, err := r.BytesPrefixed(); err != nil || string(got) != "hello" {
		t.Fatalf("BytesPrefixed = %q, %v", got, err)
	}
	if got, err := r.BytesPrefixed(); err != nil || len(got) != 0 {
		t.Fatalf("empty BytesPrefixed = %q, %v", got, err)
	}
	if got, err := r.Raw(3); err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v, %v", got, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	if _, err := r.Uvarint(); err != ErrTruncated {
		t.Fatalf("Uvarint on truncated input: err = %v, want ErrTruncated", err)
	}
	r = NewReader([]byte{1, 2})
	if _, err := r.Uint64(); err != ErrTruncated {
		t.Fatalf("Uint64 on short input: err = %v", err)
	}
	r = NewReader([]byte{5, 'a'})
	if _, err := r.BytesPrefixed(); err != ErrTruncated {
		t.Fatalf("BytesPrefixed on short input: err = %v", err)
	}
}

func TestEncodeStringsRoundtrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{},
		{[]byte("")},
		{[]byte("a")},
		{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma")},
	}
	for _, ss := range cases {
		got, err := DecodeStrings(EncodeStrings(ss))
		if err != nil {
			t.Fatalf("DecodeStrings(%q): %v", ss, err)
		}
		if len(got) != len(ss) {
			t.Fatalf("count = %d, want %d", len(got), len(ss))
		}
		for i := range ss {
			if !bytes.Equal(got[i], ss[i]) {
				t.Fatalf("string %d = %q, want %q", i, got[i], ss[i])
			}
		}
	}
}

func TestEncodeStringsQuick(t *testing.T) {
	f := func(ss [][]byte) bool {
		got, err := DecodeStrings(EncodeStrings(ss))
		if err != nil || len(got) != len(ss) {
			return false
		}
		for i := range ss {
			if !bytes.Equal(got[i], ss[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sortedRun builds a sorted run of strings and its LCP array.
func sortedRun(rng *rand.Rand, n int) ([][]byte, []int32) {
	ss := make([][]byte, n)
	for i := range ss {
		l := rng.Intn(12)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(3))
		}
		ss[i] = s
	}
	// Sort.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && bytes.Compare(ss[j-1], ss[j]) > 0; j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
	lcps := make([]int32, n)
	for i := 1; i < n; i++ {
		h := 0
		for h < len(ss[i-1]) && h < len(ss[i]) && ss[i-1][h] == ss[i][h] {
			h++
		}
		lcps[i] = int32(h)
	}
	return ss, lcps
}

func TestEncodeStringsLCPRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ss, lcps := sortedRun(rng, rng.Intn(20))
		msg := EncodeStringsLCP(ss, lcps)
		gotSS, gotLCP, err := DecodeStringsLCP(msg)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(gotSS) != len(ss) {
			t.Fatalf("count = %d, want %d", len(gotSS), len(ss))
		}
		for i := range ss {
			if !bytes.Equal(gotSS[i], ss[i]) {
				t.Fatalf("string %d = %q, want %q", i, gotSS[i], ss[i])
			}
			if i > 0 && gotLCP[i] != lcps[i] {
				t.Fatalf("lcp %d = %d, want %d", i, gotLCP[i], lcps[i])
			}
		}
	}
}

func TestLCPCompressionSavesBytes(t *testing.T) {
	// Strings sharing long prefixes must compress well.
	var ss [][]byte
	var lcps []int32
	prefix := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 50; i++ {
		s := append(append([]byte{}, prefix...), byte('a'+i%26), byte('0'+i/26))
		ss = append(ss, s)
		if i == 0 {
			lcps = append(lcps, 0)
		} else {
			h := 100
			if ss[i-1][100] == s[100] {
				h = 101
			}
			lcps = append(lcps, int32(h))
		}
	}
	plain := len(EncodeStrings(ss))
	comp := len(EncodeStringsLCP(ss, lcps))
	if comp*5 > plain {
		t.Fatalf("LCP compression too weak: %d vs %d plain bytes", comp, plain)
	}
}

func TestDecodeStringsLCPCorrupt(t *testing.T) {
	// First string claiming nonzero LCP is corrupt.
	w := NewBuffer(0)
	w.Uvarint(1)
	w.Uvarint(3) // lcp 3 with nonexistent previous string
	w.BytesPrefixed([]byte("abc"))
	if _, _, err := DecodeStringsLCP(w.Bytes()); err == nil {
		t.Fatal("expected error for corrupt first-string LCP")
	}
	// LCP exceeding previous string length is corrupt.
	w = NewBuffer(0)
	w.Uvarint(2)
	w.Uvarint(0)
	w.BytesPrefixed([]byte("ab"))
	w.Uvarint(5)
	w.BytesPrefixed([]byte("c"))
	if _, _, err := DecodeStringsLCP(w.Bytes()); err == nil {
		t.Fatal("expected error for LCP exceeding previous length")
	}
}

func TestInt32sRoundtrip(t *testing.T) {
	f := func(vs []int32) bool {
		for i := range vs {
			if vs[i] < 0 {
				vs[i] = -vs[i]
			}
		}
		got, err := DecodeInt32s(EncodeInt32s(vs))
		return err == nil && reflect.DeepEqual(normalize32(got), normalize32(vs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func normalize32(v []int32) []int32 {
	if len(v) == 0 {
		return nil
	}
	return v
}

func TestUint64sRoundtrip(t *testing.T) {
	f := func(vs []uint64) bool {
		got, err := DecodeUint64s(EncodeUint64s(vs))
		if err != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		gotF, err := AppendDecodeUintsFixed(nil, AppendUintsFixed(nil, vs, 8), 8)
		if err != nil || len(gotF) != len(vs) {
			return false
		}
		for i := range vs {
			if gotF[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetRoundtrip(t *testing.T) {
	f := func(bs []bool) bool {
		got, err := DecodeBitset(AppendBitset(nil, bs))
		if err != nil || len(got) != len(bs) {
			return false
		}
		for i := range bs {
			if got[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%3 == 0
		}
		got, err := DecodeBitset(AppendBitset(nil, bs))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("n=%d bit %d mismatch", n, i)
			}
		}
	}
}

// The AppendDecode forms extend the caller's slice and keep what it held.
// The fixed-width format is checked at every width with the largest value
// the width holds; one more byte of value must be refused by the encoder,
// one byte short of the declared count by the decoder.
func TestAppendDecodeFixedAndBitset(t *testing.T) {
	for width := 1; width <= 8; width++ {
		top := ^uint64(0) >> (64 - 8*width)
		vs := []uint64{0, 1, top, top / 3}
		msg := AppendUintsFixed(nil, vs, width)
		if len(msg) != 1+len(vs)*width {
			t.Fatalf("width %d: %d values take %d bytes", width, len(vs), len(msg))
		}
		got, err := AppendDecodeUintsFixed([]uint64{9}, msg, width)
		if err != nil || !reflect.DeepEqual(got, append([]uint64{9}, vs...)) {
			t.Fatalf("width %d: %v, %v", width, got, err)
		}
		if _, err := AppendDecodeUintsFixed(nil, msg[:len(msg)-1], width); err == nil {
			t.Fatalf("width %d: truncated message accepted", width)
		}
		if width < 8 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("width %d: value %#x encoded", width, top+1)
					}
				}()
				AppendUintsFixed(nil, []uint64{top + 1}, width)
			}()
		}
	}
	bs := []bool{true, false, false, true, true, false, true, false, true}
	gotB, err := AppendDecodeBitset([]bool{true}, AppendBitset(nil, bs))
	if err != nil || !reflect.DeepEqual(gotB, append([]bool{true}, bs...)) {
		t.Fatalf("bitset: %v, %v", gotB, err)
	}
	// A count no message of this size can hold is refused, not allocated.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := AppendDecodeBitset(nil, huge); err == nil {
		t.Fatal("bitset with a 2^64-1 count accepted")
	}
}

// TestDecodeStringsValidatesBeforeAllocating is the regression test of a
// peer's lying count: DecodeStrings sized its spine by the declared count
// as soon as the count fit the message length, so a 1 MiB message
// declaring 10⁶ strings and then cut short cost 24 MB before its first
// string was looked at. It must fail having allocated less than the
// message itself.
func TestDecodeStringsValidatesBeforeAllocating(t *testing.T) {
	msg := binary.AppendUvarint(make([]byte, 0, 1<<20), 1_000_000)
	for len(msg) < 1<<20 {
		msg = append(msg, 1, 'x') // half a million one-byte strings fit
	}
	msg = msg[:1<<20]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ss, err := DecodeStrings(msg)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a truncated message decoded to %d strings", len(ss))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("rejecting the message allocated %d bytes", got)
	}
}
