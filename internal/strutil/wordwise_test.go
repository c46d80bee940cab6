package strutil

import (
	"bytes"
	"math/rand"
	"testing"
)

// lcpScalar is the pre-word-wise reference implementation: one byte at a
// time. The word-wise LCP/CompareLCP must agree with it on every input.
func lcpScalar(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func compareLCPScalar(a, b []byte, from int) (cmp, lcp int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := from
	for i < n && a[i] == b[i] {
		i++
	}
	switch {
	case i < len(a) && i < len(b):
		if a[i] < b[i] {
			return -1, i
		}
		return 1, i
	case i < len(b):
		return -1, i
	case i < len(a):
		return 1, i
	default:
		return 0, i
	}
}

// diffCases enumerates the boundary shapes the word-wise code must handle:
// empty strings, proper prefixes, tails shorter than a word, mismatches on
// every byte lane of a word, and mismatches straddling word boundaries.
func diffCases() [][2][]byte {
	var cases [][2][]byte
	add := func(a, b []byte) { cases = append(cases, [2][]byte{a, b}) }

	add(nil, nil)
	add([]byte{}, []byte{})
	add(nil, []byte("x"))
	add([]byte("x"), nil)
	add([]byte("abc"), []byte("abc"))
	add([]byte("abc"), []byte("abcd")) // proper prefix
	add([]byte("abcd"), []byte("abc")) // proper prefix, reversed
	add([]byte("abc"), []byte("abd"))  // mismatch in sub-word tail
	add(bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("a"), 100))
	add(bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("a"), 101))

	// Mismatch at every offset 0..40: covers each lane of the first words
	// and the scalar tail after the last full word.
	base := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDE")
	for k := 0; k <= 40; k++ {
		mod := append([]byte(nil), base...)
		mod[k] ^= 0x80
		add(base, mod)
		add(mod, base)
		// Also with unequal lengths beyond the mismatch.
		add(base[:k+1], mod)
		add(mod[:k+1], base)
	}
	// Equal prefixes of every length 0..24 with nothing after (prefix
	// pairs across word boundaries).
	for k := 0; k <= 24; k++ {
		add(base[:k], base)
		add(base, base[:k])
	}
	return cases
}

func TestLCPDifferential(t *testing.T) {
	for _, c := range diffCases() {
		a, b := c[0], c[1]
		if got, want := LCP(a, b), lcpScalar(a, b); got != want {
			t.Fatalf("LCP(%q, %q) = %d, scalar %d", a, b, got, want)
		}
	}
}

func TestCompareLCPDifferential(t *testing.T) {
	for _, c := range diffCases() {
		a, b := c[0], c[1]
		maxFrom := lcpScalar(a, b)
		for from := 0; from <= maxFrom; from++ {
			gc, gl := CompareLCP(a, b, from)
			wc, wl := compareLCPScalar(a, b, from)
			if gc != wc || gl != wl {
				t.Fatalf("CompareLCP(%q, %q, %d) = (%d, %d), scalar (%d, %d)",
					a, b, from, gc, gl, wc, wl)
			}
		}
	}
}

func TestCompareLCPDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("ab") // tiny alphabet forces long shared prefixes
	for iter := 0; iter < 5000; iter++ {
		a := make([]byte, rng.Intn(70))
		b := make([]byte, rng.Intn(70))
		for i := range a {
			a[i] = alphabet[rng.Intn(len(alphabet))]
		}
		copy(b, a[:min(len(a), len(b))]) // bias toward common prefixes
		for i := range b {
			if rng.Intn(20) == 0 {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		if got, want := LCP(a, b), lcpScalar(a, b); got != want {
			t.Fatalf("LCP(%q, %q) = %d, scalar %d", a, b, got, want)
		}
		from := 0
		if h := lcpScalar(a, b); h > 0 {
			from = rng.Intn(h + 1)
		}
		gc, gl := CompareLCP(a, b, from)
		wc, wl := compareLCPScalar(a, b, from)
		if gc != wc || gl != wl {
			t.Fatalf("CompareLCP(%q, %q, %d) = (%d, %d), scalar (%d, %d)",
				a, b, from, gc, gl, wc, wl)
		}
	}
}

func TestValidateSortedLCP(t *testing.T) {
	ss := [][]byte{[]byte(""), []byte("a"), []byte("ab"), []byte("abc"), []byte("b")}
	lcps := ComputeLCPArray(ss)
	if i := ValidateSortedLCP(ss, lcps); i != -1 {
		t.Fatalf("valid input rejected at %d", i)
	}
	bad := append([]int32(nil), lcps...)
	bad[2] = 9
	if i := ValidateSortedLCP(ss, bad); i != 2 {
		t.Fatalf("LCP violation index = %d, want 2", i)
	}
	unsorted := [][]byte{[]byte("b"), []byte("a")}
	if i := ValidateSortedLCP(unsorted, ComputeLCPArrayInto(unsorted, nil)); i != 1 {
		t.Fatalf("order violation index = %d, want 1", i)
	}
}

func TestComputeLCPArrayInto(t *testing.T) {
	ss := [][]byte{[]byte("aa"), []byte("aab"), []byte("ab")}
	scratch := make([]int32, 0, 8)
	out := ComputeLCPArrayInto(ss, scratch)
	if &out[0] != &scratch[:1][0] {
		t.Fatal("scratch with sufficient capacity was not reused")
	}
	want := []int32{0, 2, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// FuzzLCP cross-checks the word-wise LCP and CompareLCP against the scalar
// references on fuzzer-generated inputs, including a shared-prefix variant
// so the mismatch regularly lands beyond the first word.
func FuzzLCP(f *testing.F) {
	f.Add([]byte(""), []byte(""), uint8(0))
	f.Add([]byte("abc"), []byte("abd"), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaab"), uint8(3))
	f.Add([]byte("prefix"), []byte("prefixlonger"), uint8(1))
	f.Fuzz(func(t *testing.T, a, b []byte, pad uint8) {
		// Derived pair with a long common prefix crossing word boundaries.
		common := bytes.Repeat([]byte{0x5a}, int(pad))
		a2 := append(append([]byte(nil), common...), a...)
		b2 := append(append([]byte(nil), common...), b...)
		for _, pair := range [][2][]byte{{a, b}, {a2, b2}} {
			x, y := pair[0], pair[1]
			want := lcpScalar(x, y)
			if got := LCP(x, y); got != want {
				t.Fatalf("LCP(%q, %q) = %d, scalar %d", x, y, got, want)
			}
			for _, from := range []int{0, want / 2, want} {
				gc, gl := CompareLCP(x, y, from)
				wc, wl := compareLCPScalar(x, y, from)
				if gc != wc || gl != wl {
					t.Fatalf("CompareLCP(%q, %q, %d) = (%d,%d), scalar (%d,%d)",
						x, y, from, gc, gl, wc, wl)
				}
			}
		}
	})
}
