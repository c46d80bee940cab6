package golomb

import (
	"bytes"
	"math/rand"
	"testing"
)

// scalarBitWriter is the pre-word-buffered reference implementation: one
// bit per operation, most-significant-bit first. The buffered BitWriter
// must produce byte-identical streams.
type scalarBitWriter struct {
	buf  []byte
	nbit uint8
}

func (w *scalarBitWriter) writeBit(b uint) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit)
	}
	w.nbit = (w.nbit + 1) & 7
}

func (w *scalarBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(uint(v>>uint(i)) & 1)
	}
}

func (w *scalarBitWriter) writeUnary(q uint64) {
	for ; q > 0; q-- {
		w.writeBit(1)
	}
	w.writeBit(0)
}

// scalarBitReader is the matching one-bit-at-a-time reference reader.
type scalarBitReader struct {
	buf []byte
	pos int
}

func (r *scalarBitReader) readBit() (uint, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrCorrupt
	}
	b := r.buf[r.pos/8] >> (7 - uint(r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

func (r *scalarBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *scalarBitReader) readUnary() (uint64, error) {
	var q uint64
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return q, nil
		}
		q++
	}
}

// bitOp is one step of a differential bit I/O script.
type bitOp struct {
	unary bool
	v     uint64
	n     uint
}

func runScript(t *testing.T, ops []bitOp) {
	t.Helper()
	w := &BitWriter{}
	ref := &scalarBitWriter{}
	for _, op := range ops {
		if op.unary {
			w.WriteUnary(op.v)
			ref.writeUnary(op.v)
		} else {
			w.WriteBits(op.v, op.n)
			ref.writeBits(op.v, op.n)
		}
	}
	got, want := w.Bytes(), ref.buf
	if !bytes.Equal(got, want) {
		t.Fatalf("streams differ:\n buffered %x\n scalar   %x\nops: %+v", got, want, ops)
	}
	if gotLen, wantLen := len(w.buf)*8+int(w.n), len(ref.buf)*8-int((8-ref.nbit)&7); gotLen != wantLen {
		t.Fatalf("bit length = %d, scalar %d", gotLen, wantLen)
	}
	// Both readers must decode the shared stream identically.
	r := NewBitReader(got)
	sr := &scalarBitReader{buf: want}
	for _, op := range ops {
		if op.unary {
			gv, gerr := r.ReadUnary()
			wv, werr := sr.readUnary()
			if gv != wv || (gerr == nil) != (werr == nil) {
				t.Fatalf("ReadUnary = (%d, %v), scalar (%d, %v)", gv, gerr, wv, werr)
			}
		} else {
			gv, gerr := r.ReadBits(op.n)
			wv, werr := sr.readBits(op.n)
			if gv != wv || (gerr == nil) != (werr == nil) {
				t.Fatalf("ReadBits(%d) = (%d, %v), scalar (%d, %v)", op.n, gv, gerr, wv, werr)
			}
		}
	}
}

func TestBitIODifferentialCrafted(t *testing.T) {
	scripts := [][]bitOp{
		// Cross-byte boundaries: fields of every width 1..64 back to back.
		func() []bitOp {
			var ops []bitOp
			for n := uint(1); n <= 64; n++ {
				ops = append(ops, bitOp{v: 0xA5A5A5A5A5A5A5A5, n: n})
			}
			return ops
		}(),
		// Unary runs longer than 64 bits (the accumulator must drain
		// multiple times within one call).
		{{unary: true, v: 0}, {unary: true, v: 1}, {unary: true, v: 63},
			{unary: true, v: 64}, {unary: true, v: 65}, {unary: true, v: 200}},
		// Unary interleaved with unaligned fields.
		{{v: 1, n: 3}, {unary: true, v: 7}, {v: 0x1FF, n: 9},
			{unary: true, v: 100}, {v: 0xFFFFFFFFFFFFFFFF, n: 64}},
		// Maximum-width fields at every pending-bit phase.
		func() []bitOp {
			var ops []bitOp
			for phase := uint(1); phase <= 7; phase++ {
				ops = append(ops, bitOp{v: 1, n: phase}, bitOp{v: ^uint64(0), n: 64})
			}
			return ops
		}(),
	}
	for _, ops := range scripts {
		runScript(t, ops)
	}
}

func TestBitIODifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		ops := make([]bitOp, rng.Intn(40)+1)
		for i := range ops {
			if rng.Intn(3) == 0 {
				ops[i] = bitOp{unary: true, v: uint64(rng.Intn(150))}
			} else {
				n := uint(rng.Intn(64) + 1)
				ops[i] = bitOp{v: rng.Uint64(), n: n}
			}
		}
		runScript(t, ops)
	}
}

// scalarEncodeSorted re-implements EncodeSorted with the scalar writer so
// the buffered encoder can be checked for byte identity (the stream format
// — and therefore the bytes/str benchmark metric — must not change).
func scalarEncodeSorted(vals []uint64) []byte {
	w := &scalarBitWriter{}
	if len(vals) == 0 {
		full := EncodeSorted(vals)
		return full // header-only message has no bit stream
	}
	span := vals[len(vals)-1] - vals[0]
	m := ChooseM(span, len(vals))
	prev := vals[0]
	for _, v := range vals[1:] {
		q := (v - prev) / m
		rem := (v - prev) % m
		w.writeUnary(q)
		if m > 1 {
			b := uint(lenB(m - 1))
			cutoff := uint64(1)<<b - m
			if rem < cutoff {
				w.writeBits(rem, b-1)
			} else {
				w.writeBits(rem+cutoff, b)
			}
		}
		prev = v
	}
	return w.buf
}

func lenB(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

func TestEncodeSortedByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(50)
		vals := make([]uint64, n)
		var cur uint64
		for i := range vals {
			cur += uint64(rng.Intn(1 << uint(rng.Intn(40))))
			vals[i] = cur
		}
		full := EncodeSorted(vals)
		wantBits := scalarEncodeSorted(vals)
		if len(wantBits) > 0 && !bytes.HasSuffix(full, wantBits) {
			t.Fatalf("bit stream differs from scalar encoder for %v", vals)
		}
		got, err := DecodeSorted(full)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(vals) {
			t.Fatalf("decode count %d, want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("decode[%d] = %d, want %d", i, got[i], vals[i])
			}
		}
	}
}

// FuzzEncodeSorted checks the roundtrip and the byte identity with the
// scalar encoder on fuzzer-chosen gap sequences, including huge spans that
// force remainder fields wider than the reader's refill guarantee.
func FuzzEncodeSorted(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2), uint64(3))
	f.Add(uint64(0), uint64(1)<<62, uint64(1)<<63, ^uint64(0))
	f.Add(uint64(5), uint64(0), uint64(0), uint64(0)) // duplicates
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		a %= 1 << 60 // keep the ascending sums from overflowing
		vals := []uint64{a, a + b%(1<<60), 0, 0}
		vals[2] = vals[1] + c%(1<<60)
		vals[3] = vals[2] + d%(1<<60)
		full := EncodeSorted(vals)
		wantBits := scalarEncodeSorted(vals)
		if len(wantBits) > 0 && !bytes.HasSuffix(full, wantBits) {
			t.Fatalf("bit stream differs from scalar encoder for %v", vals)
		}
		got, err := DecodeSorted(full)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("decode[%d] = %d, want %d", i, got[i], vals[i])
			}
		}
	})
}
