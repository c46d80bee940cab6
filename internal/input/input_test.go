package input

import (
	"bytes"
	"slices"
	"testing"

	"dss/internal/strutil"
)

func dnRatioOf(ss [][]byte) float64 {
	return float64(strutil.TotalD(ss)) / float64(strutil.TotalLen(ss))
}

func avgLCPShare(ss [][]byte) float64 {
	sorted := slices.Clone(ss)
	// cheap insertion-free sort via strutil reference path
	lcps := strutil.ComputeLCPArray(sortBytes(sorted))
	var lcpSum, lenSum int64
	for i, s := range sorted {
		lcpSum += int64(lcps[i])
		lenSum += int64(len(s))
	}
	return float64(lcpSum) / float64(lenSum)
}

func sortBytes(ss [][]byte) [][]byte {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && bytes.Compare(ss[j-1], ss[j]) > 0; j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
	return ss
}

func TestDNRatioBands(t *testing.T) {
	p := 4
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := DNConfig{StringsPerPE: 500, Length: 100, Ratio: r, Seed: 1}
		all := Gather(func(pe int) [][]byte { return DN(cfg, pe, p) }, p)
		got := dnRatioOf(all)
		// w/L ≈ 0.03 noise floor for r=0.
		if got < r-0.05 || got > r+0.08 {
			t.Fatalf("D/N(r=%.2f) = %.3f, outside band", r, got)
		}
		for _, s := range all {
			if len(s) != 100 {
				t.Fatalf("string length %d, want 100", len(s))
			}
		}
	}
}

func TestDNGlobalUniquenessAndPInvariance(t *testing.T) {
	cfg := DNConfig{StringsPerPE: 0, Length: 50, Ratio: 0.5, Seed: 1}
	// Same global instance for different p (weak-scaling comparability).
	cfg.StringsPerPE = 120
	all4 := Gather(func(pe int) [][]byte { return DN(cfg, pe, 4) }, 4)
	cfg.StringsPerPE = 160
	all3 := Gather(func(pe int) [][]byte { return DN(cfg, pe, 3) }, 3)
	if len(all4) != len(all3) {
		t.Fatalf("sizes differ: %d vs %d", len(all4), len(all3))
	}
	if strutil.MultisetHash(all4) != strutil.MultisetHash(all3) {
		t.Fatal("global D/N instance depends on p")
	}
	// All strings distinct.
	seen := map[string]bool{}
	for _, s := range all4 {
		if seen[string(s)] {
			t.Fatalf("duplicate string in D/N instance: %q", s)
		}
		seen[string(s)] = true
	}
}

func TestDNSkewedLengths(t *testing.T) {
	cfg := DNConfig{StringsPerPE: 250, Length: 80, Ratio: 0.5, Seed: 2}
	p := 4
	all := Gather(func(pe int) [][]byte { return DNSkewed(cfg, pe, p) }, p)
	long, short := 0, 0
	for _, s := range all {
		switch len(s) {
		case 80:
			short++
		case 320:
			long++
		default:
			t.Fatalf("unexpected length %d", len(s))
		}
	}
	if long != len(all)/5 {
		t.Fatalf("padded %d of %d strings, want exactly 20%%", long, len(all))
	}
	// Padding must not change D much: D/N of the skewed instance (per
	// string) stays near the original distinguishing structure.
	d := strutil.TotalD(all)
	if float64(d) > 1.2*float64(strutil.TotalLen(all))/4*2 {
		t.Fatalf("padding added distinguishing characters: D=%d", d)
	}
}

func TestCommonCrawlLikeStatistics(t *testing.T) {
	cfg := CCConfig{LinesPerPE: 2500, Seed: 3}
	p := 4
	all := Gather(func(pe int) [][]byte { return CommonCrawlLike(cfg, pe, p) }, p)
	// Average line length ≈ 40 (paper: 40).
	avgLen := float64(strutil.TotalLen(all)) / float64(len(all))
	if avgLen < 25 || avgLen > 60 {
		t.Fatalf("average line length %.1f outside [25,60]", avgLen)
	}
	// Duplicates present and cross-PE (hot pool).
	counts := map[string]int{}
	for _, s := range all {
		counts[string(s)]++
	}
	dups := 0
	for _, c := range counts {
		if c > 1 {
			dups += c
		}
	}
	if frac := float64(dups) / float64(len(all)); frac < 0.15 || frac > 0.6 {
		t.Fatalf("duplicate line fraction %.2f outside [0.15,0.6]", frac)
	}
	// D/N band around the paper's 0.68 (duplicates force full-length DIST).
	if r := dnRatioOf(all); r < 0.45 || r > 0.9 {
		t.Fatalf("CC D/N = %.2f outside [0.45,0.9]", r)
	}
	// Alphabet is large (multi-symbol, ≈242 reachable).
	alpha := map[byte]bool{}
	for _, s := range all {
		for _, c := range s {
			alpha[c] = true
		}
	}
	if len(alpha) < 150 {
		t.Fatalf("alphabet size %d, want ≥ 150", len(alpha))
	}
}

func TestDNAReadsStatistics(t *testing.T) {
	cfg := DNAConfig{ReadsPerPE: 2500, Seed: 4}
	p := 4
	all := Gather(func(pe int) [][]byte { return DNAReads(cfg, pe, p) }, p)
	// Alphabet exactly {A,C,G,T}.
	alpha := map[byte]bool{}
	for _, s := range all {
		if len(s) != 99 {
			t.Fatalf("read length %d, want 99", len(s))
		}
		for _, c := range s {
			alpha[c] = true
		}
	}
	if len(alpha) != 4 {
		t.Fatalf("alphabet size %d, want 4", len(alpha))
	}
	// D/N band around the paper's 0.38.
	if r := dnRatioOf(all); r < 0.2 || r > 0.6 {
		t.Fatalf("DNA D/N = %.2f outside [0.2,0.6]", r)
	}
}

func TestSuffixInstanceTinyDN(t *testing.T) {
	cfg := SuffixConfig{TextLen: 4000, Seed: 5}
	p := 4
	all := Gather(func(pe int) [][]byte { return SuffixInstance(cfg, pe, p) }, p)
	if len(all) != cfg.TextLen {
		t.Fatalf("got %d suffixes, want %d", len(all), cfg.TextLen)
	}
	// All suffixes of one text: D/N must be tiny (the paper's instance has
	// D/N ≈ 1e-4; at our scale ≲ 0.02).
	if r := dnRatioOf(all); r > 0.05 {
		t.Fatalf("suffix instance D/N = %.4f, want ≪ 1", r)
	}
	// Suffix lengths must be exactly {1, ..., TextLen}.
	seen := make([]bool, cfg.TextLen+1)
	for _, s := range all {
		if seen[len(s)] {
			t.Fatalf("duplicate suffix length %d", len(s))
		}
		seen[len(s)] = true
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := CommonCrawlLike(CCConfig{LinesPerPE: 100, Seed: 7}, 2, 4)
	b := CommonCrawlLike(CCConfig{LinesPerPE: 100, Seed: 7}, 2, 4)
	if strutil.MultisetHash(a) != strutil.MultisetHash(b) {
		t.Fatal("CommonCrawlLike not deterministic")
	}
	c := DNAReads(DNAConfig{ReadsPerPE: 100, Seed: 7}, 1, 4)
	d := DNAReads(DNAConfig{ReadsPerPE: 100, Seed: 7}, 1, 4)
	if strutil.MultisetHash(c) != strutil.MultisetHash(d) {
		t.Fatal("DNAReads not deterministic")
	}
	e := DNAReads(DNAConfig{ReadsPerPE: 100, Seed: 8}, 1, 4)
	if strutil.MultisetHash(c) == strutil.MultisetHash(e) {
		t.Fatal("DNAReads ignores seed")
	}
}

func TestRandomGenerator(t *testing.T) {
	ss := Random(500, 20, 3, 0, 1, 9)
	if len(ss) != 500 {
		t.Fatalf("got %d strings", len(ss))
	}
	for _, s := range ss {
		if len(s) < 1 || len(s) > 20 {
			t.Fatalf("length %d out of range", len(s))
		}
		for _, c := range s {
			if c < 'a' || c > 'c' {
				t.Fatalf("character %q out of alphabet", c)
			}
		}
	}
}

var _ = avgLCPShare // exercised indirectly; kept for the bench harness
