package spill

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/*.dssrun from the current RunWriter")

// pinPageSize is small enough that most pages hold one or two items, so the
// front coding of the LCP files runs across page boundaries.
const pinPageSize = 8

// pinFiles are the checked-in sorted-run files, one per column layout.
var pinFiles = []struct {
	name string
	opts RunWriterOpts
}{
	{"strings.dssrun", RunWriterOpts{}},
	{"lcp.dssrun", RunWriterOpts{LCP: true}},
	{"sats.dssrun", RunWriterOpts{Sats: true}},
	{"lcp-sats.dssrun", RunWriterOpts{LCP: true, Sats: true}},
}

// pinItems is the sorted run the pinned files hold: empty strings first,
// items whose LCP equals their predecessor's whole length ("ab" after "ab",
// "abc" after "ab"), long shared prefixes and satellites of every varint
// width.
func pinItems() (ss [][]byte, lcps []int32, sats []uint64) {
	for _, s := range []string{
		"", "", "a", "ab", "ab", "abc", "abcdefghij", "abcdefghijk", "abd",
		"b", "ba", "shared-prefix/000", "shared-prefix/001", "shared-prefix/001",
		"shared-prefix/0010", "z",
	} {
		lcp := int32(0)
		if n := len(ss); n > 0 {
			for int(lcp) < min(len(s), len(ss[n-1])) && s[lcp] == ss[n-1][lcp] {
				lcp++
			}
		}
		ss = append(ss, []byte(s))
		lcps = append(lcps, lcp)
		sats = append(sats, uint64(len(sats))<<(7*(len(sats)%5)))
	}
	return ss, lcps, sats
}

// writePin writes pinItems through a RunWriter with the given columns.
func writePin(t *testing.T, opts RunWriterOpts) []byte {
	t.Helper()
	ss, lcps, sats := pinItems()
	var buf bytes.Buffer
	w, err := NewRunWriter(&buf, opts, nil, pinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		lcp := lcps[i]
		if !opts.LCP {
			lcp = 0
		}
		if err := w.Add(s, lcp, sats[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunWriterMatchesPinnedFiles pins the DSSRUN1 bytes: the writer must
// reproduce every checked-in file byte for byte, and ReadRunFile must
// return the items it was written from. The files were written by the
// RunWriter that front-coded its items itself; regenerate them (only for
// an announced format change) with
// go test ./internal/spill -run TestRunWriterMatchesPinnedFiles -update-pins
func TestRunWriterMatchesPinnedFiles(t *testing.T) {
	for _, pin := range pinFiles {
		path := filepath.Join("testdata", pin.name)
		got := writePin(t, pin.opts)
		if *updatePins {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the writer produced\n%q\nthe pinned file holds\n%q", pin.name, got, want)
		}
		ss, lcps, sats, err := ReadRunFile(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		wantSS, wantLCPs, wantSats := pinItems()
		if len(ss) != len(wantSS) {
			t.Fatalf("%s: %d items, want %d", pin.name, len(ss), len(wantSS))
		}
		for i := range ss {
			if !bytes.Equal(ss[i], wantSS[i]) ||
				(pin.opts.LCP && lcps[i] != wantLCPs[i]) || (pin.opts.Sats && sats[i] != wantSats[i]) {
				t.Fatalf("%s: item %d read back wrong", pin.name, i)
			}
		}
		if !pin.opts.LCP && lcps != nil || !pin.opts.Sats && sats != nil {
			t.Fatalf("%s: ReadRunFile returned a column the file does not hold", pin.name)
		}
	}
}
