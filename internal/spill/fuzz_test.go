package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzItems derives a sorted-run item sequence from raw fuzz bytes: each
// item is a short prefix of the corpus data with a correct LCP against its
// predecessor, so the writer's front-coding invariants hold regardless of
// input. Returns nil when data can't seed even one item.
func fuzzItems(data []byte) (ss [][]byte, lcps []int32, sats []uint64) {
	var prev []byte
	for i := 0; i+2 <= len(data); {
		n := int(data[i]) % 48
		i++
		if i+n > len(data) {
			n = len(data) - i
		}
		s := append([]byte(nil), data[i:i+n]...)
		i += n
		lcp := 0
		for lcp < len(prev) && lcp < len(s) && prev[lcp] == s[lcp] {
			lcp++
		}
		ss = append(ss, s)
		lcps = append(lcps, int32(lcp))
		sats = append(sats, uint64(n)<<32|uint64(i))
		prev = s
	}
	return ss, lcps, sats
}

// FuzzRunFileRoundTrip drives arbitrary item sequences through RunWriter →
// RunScanner at fuzz-chosen page sizes and flag combinations and demands an
// exact round-trip: same strings, same satellites, LCPs consistent with the
// strings themselves, clean terminator. This is the spill-page analogue of
// the wire package's FuzzRunCursor.
func FuzzRunFileRoundTrip(f *testing.F) {
	f.Add([]byte("3abc3abd3xyz"), uint8(3), uint16(64))
	f.Add([]byte{}, uint8(0), uint16(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 64), uint8(2), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, flags8 uint8, page16 uint16) {
		opts := RunWriterOpts{LCP: flags8&1 != 0, Sats: flags8&2 != 0}
		pageSize := int(page16%4096) + 1
		ss, lcps, sats := fuzzItems(data)

		var buf bytes.Buffer
		rw, err := NewRunWriter(&buf, opts, nil, pageSize)
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		for i, s := range ss {
			if err := rw.Add(s, lcps[i], sats[i]); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		gotSS, gotLCPs, gotSats, err := ReadRunFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if len(gotSS) != len(ss) {
			t.Fatalf("round-trip %d items, want %d", len(gotSS), len(ss))
		}
		for i := range ss {
			if !bytes.Equal(gotSS[i], ss[i]) {
				t.Fatalf("item %d: got %q want %q", i, gotSS[i], ss[i])
			}
		}
		if opts.LCP {
			for i := range lcps {
				if gotLCPs[i] != lcps[i] {
					t.Fatalf("lcp %d: got %d want %d", i, gotLCPs[i], lcps[i])
				}
			}
		}
		if opts.Sats {
			for i := range sats {
				if gotSats[i] != sats[i] {
					t.Fatalf("sat %d: got %d want %d", i, gotSats[i], sats[i])
				}
			}
		}
	})
}

// FuzzRunScanner feeds arbitrary bytes — valid files, truncations, and pure
// garbage — to the scanner. The contract under corruption is errors, never
// panics, stalls, or unbounded allocation; a stream that scans to a clean
// end must be byte-for-byte replayable to the same items.
func FuzzRunScanner(f *testing.F) {
	var valid bytes.Buffer
	rw, _ := NewRunWriter(&valid, RunWriterOpts{LCP: true, Sats: true}, nil, 32)
	rw.Add([]byte("alpha"), 0, 1)
	rw.Add([]byte("alphabet"), 5, 2)
	rw.Add([]byte("beta"), 0, 3)
	rw.Close()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("DSSRUN1\n"))
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	for _, pin := range pinFiles { // every column layout, pages front-coded across
		file, err := os.ReadFile(filepath.Join("testdata", pin.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := NewRunScanner(bytes.NewReader(data))
		if err != nil {
			return
		}
		var items [][]byte
		for {
			s, _, _, ok, err := sc.Next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			items = append(items, append([]byte(nil), s...))
			if len(items) > 1<<16 {
				t.Fatalf("scanner emitted over %d items from %d input bytes", 1<<16, len(data))
			}
		}
		// Clean end: a replay must agree exactly.
		again, _, _, err := ReadRunFile(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("clean scan but replay errors: %v", err)
		}
		if len(again) != len(items) {
			t.Fatalf("replay %d items, first scan %d", len(again), len(items))
		}
		for i := range items {
			if !bytes.Equal(again[i], items[i]) {
				t.Fatalf("replay item %d differs", i)
			}
		}
	})
}
