// Package input generates the evaluation workloads of Section VII. The
// paper's real-world datasets (82 GB of CommonCrawl text, 125 GB of
// 1000-Genomes DNA reads, a Wikipedia suffix instance) are not available
// offline, so this package builds synthetic equivalents with matched
// statistics — alphabet size, string length distribution, duplicate rate,
// average LCP share and D/N ratio — as documented per generator and
// validated by the package tests. The D/N instances are implemented
// exactly as the paper describes them.
//
// All generators are deterministic functions of (seed, pe, p): every PE
// produces its own fragment without communication, and the union over PEs
// is the same global instance regardless of p (for the strided generators).
package input

import (
	"math/rand"
)

// DNConfig parameterizes the synthetic D/N-ratio instance of Section VII-A:
// string i consists of repetitions of the first alphabet character, then a
// base-σ encoding of i, then filler characters up to the target length.
// Ratio r places the encoding: r=0 puts it at the front (tiny D), r=1 at
// the end (D = N).
type DNConfig struct {
	StringsPerPE int
	Length       int     // paper: 500; scaled down in our experiments
	Ratio        float64 // r = D/N ∈ [0,1]
	Sigma        int     // alphabet size (default 26)
	// Seed is never read: the D/N instance is deterministic. It stays
	// while the repository benchmark's workload table sets it.
	Seed int64
}

// DN generates PE pe's fragment of the D/N instance. Strings are assigned
// to PEs by stride (i = j·p + pe), which distributes the lexicographic
// range uniformly like the paper's random distribution.
func DN(cfg DNConfig, pe, p int) [][]byte {
	if cfg.Sigma <= 1 {
		cfg.Sigma = 26
	}
	n := cfg.StringsPerPE * p
	w := digitsBase(n, cfg.Sigma)
	pad := int(cfg.Ratio * float64(cfg.Length-w))
	if pad < 0 {
		pad = 0
	}
	if pad+w > cfg.Length {
		pad = cfg.Length - w
	}
	out := make([][]byte, 0, cfg.StringsPerPE)
	for j := 0; j < cfg.StringsPerPE; j++ {
		i := j*p + pe
		s := make([]byte, cfg.Length)
		for k := 0; k < pad; k++ {
			s[k] = alphaChar(0)
		}
		encodeBase(s[pad:pad+w], i, cfg.Sigma)
		for k := pad + w; k < cfg.Length; k++ {
			s[k] = alphaChar(0)
		}
		out = append(out, s)
	}
	return out
}

// DNSkewed generates the skewed D/N variant of Section VII-E: the 20%
// lexicographically smallest strings are padded with trailing filler to 4×
// the length, without contributing to the distinguishing prefixes. This
// breaks string-based load balancing while char-based sampling copes.
func DNSkewed(cfg DNConfig, pe, p int) [][]byte {
	ss := DN(cfg, pe, p)
	n := cfg.StringsPerPE * p
	cut := n / 5
	for j := range ss {
		i := j*p + pe
		if i < cut { // smallest base-σ encodings are the smallest strings
			padded := make([]byte, 4*cfg.Length)
			copy(padded, ss[j])
			for k := cfg.Length; k < len(padded); k++ {
				padded[k] = alphaChar(0)
			}
			ss[j] = padded
		}
	}
	return ss
}

// CCConfig parameterizes the COMMONCRAWL-like text instance: lines of
// Zipf-distributed words over a large byte alphabet, with a deliberate
// share of exactly repeated lines. Matched statistics (Section VII-A):
// alphabet ≈ 242, average line ≈ 40 characters, D/N ≈ 0.68, average LCP
// ≈ 60% of the line.
type CCConfig struct {
	LinesPerPE int
	Seed       int64
	// DupProb is the probability that a line is drawn from the shared hot
	// pool instead of being freshly sampled (default 0.35, giving the high
	// duplicate rate of real web dumps).
	DupProb float64
	// HotPool is the number of globally shared duplicate lines (default 256).
	HotPool int
}

// CommonCrawlLike generates PE pe's text lines.
func CommonCrawlLike(cfg CCConfig, pe, p int) [][]byte {
	if cfg.DupProb == 0 {
		cfg.DupProb = 0.35
	}
	if cfg.HotPool == 0 {
		cfg.HotPool = 256
	}
	// Shared state (identical on every PE): vocabulary and hot pool.
	shared := rand.New(rand.NewSource(cfg.Seed))
	vocab := makeVocab(shared, 8192)
	zipf := rand.NewZipf(shared, 1.4, 4, uint64(len(vocab)-1))
	hot := make([][]byte, cfg.HotPool)
	for i := range hot {
		hot[i] = makeLine(shared, zipf, vocab)
	}
	// Per-PE stream.
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(pe+1)*0x5deece66d))
	zipfLocal := rand.NewZipf(rng, 1.4, 4, uint64(len(vocab)-1))
	out := make([][]byte, 0, cfg.LinesPerPE)
	for j := 0; j < cfg.LinesPerPE; j++ {
		if rng.Float64() < cfg.DupProb {
			out = append(out, hot[rng.Intn(len(hot))])
		} else {
			out = append(out, makeLine(rng, zipfLocal, vocab))
		}
	}
	return out
}

// makeVocab builds a word list over a 242-symbol byte alphabet with
// Zipf-friendly short words.
func makeVocab(rng *rand.Rand, size int) [][]byte {
	vocab := make([][]byte, size)
	seen := map[string]bool{}
	for i := 0; i < size; {
		l := 2 + rng.Intn(9)
		w := make([]byte, l)
		for k := range w {
			// 242 printable-ish symbols: 0x21..0xFF minus a few.
			w[k] = byte(0x21 + rng.Intn(222))
		}
		if seen[string(w)] {
			continue
		}
		seen[string(w)] = true
		vocab[i] = w
		i++
	}
	return vocab
}

func makeLine(rng *rand.Rand, zipf *rand.Zipf, vocab [][]byte) []byte {
	words := 2 + rng.Intn(9)
	var line []byte
	for k := 0; k < words; k++ {
		if k > 0 {
			line = append(line, ' ')
		}
		line = append(line, vocab[zipf.Uint64()]...)
	}
	return line
}

// DNAConfig parameterizes the DNAREADS-like instance: fixed-length reads
// sampled from a shared random genome over {A,C,G,T}, with a share of
// reads drawn from hot offsets (sequencing coverage duplicates). Matched
// statistics: alphabet 4, read length ≈ 99, average LCP ≈ 30% of the read,
// D/N ≈ 0.38.
type DNAConfig struct {
	ReadsPerPE int
	ReadLen    int // default 99
	GenomeLen  int // default 1<<20
	Seed       int64
	// HotFrac is the fraction of reads drawn from the hot offset pool
	// (default 0.42).
	HotFrac float64
	// HotPool is the number of hot offsets (default ReadsPerPE/8+16).
	HotPool int
}

// DNAReads generates PE pe's reads.
func DNAReads(cfg DNAConfig, pe, p int) [][]byte {
	if cfg.ReadLen == 0 {
		cfg.ReadLen = 99
	}
	if cfg.GenomeLen == 0 {
		cfg.GenomeLen = 1 << 20
	}
	if cfg.HotFrac == 0 {
		cfg.HotFrac = 0.42
	}
	if cfg.HotPool == 0 {
		cfg.HotPool = cfg.ReadsPerPE/8 + 16
	}
	bases := []byte("ACGT")
	shared := rand.New(rand.NewSource(cfg.Seed))
	genome := make([]byte, cfg.GenomeLen)
	for i := range genome {
		genome[i] = bases[shared.Intn(4)]
	}
	hot := make([]int, cfg.HotPool)
	for i := range hot {
		hot[i] = shared.Intn(cfg.GenomeLen - cfg.ReadLen)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(pe+1)*0x2545f4914f6cdd1d))
	out := make([][]byte, 0, cfg.ReadsPerPE)
	for j := 0; j < cfg.ReadsPerPE; j++ {
		var off int
		if rng.Float64() < cfg.HotFrac {
			// Hot offset with small jitter: long shared prefixes without
			// exact duplication dominating.
			off = hot[rng.Intn(len(hot))] + rng.Intn(3)
		} else {
			off = rng.Intn(cfg.GenomeLen - cfg.ReadLen - 4)
		}
		read := make([]byte, cfg.ReadLen)
		copy(read, genome[off:off+cfg.ReadLen])
		out = append(out, read)
	}
	return out
}

// SuffixConfig parameterizes the suffix sorting instance of Section VII-E:
// all suffixes of one generated text, the extreme D ≪ N case
// (the paper measures D/N ≈ 1e-4).
type SuffixConfig struct {
	TextLen int
	Seed    int64
}

// SuffixInstance generates PE pe's share of the suffixes of the shared
// text: suffix j goes to PE j mod p. Suffixes are zero-copy slices of a
// per-PE copy of the text, like the pointer representation the sorters use.
func SuffixInstance(cfg SuffixConfig, pe, p int) [][]byte {
	shared := rand.New(rand.NewSource(cfg.Seed))
	vocab := makeVocab(shared, 2048)
	zipf := rand.NewZipf(shared, 1.3, 3, uint64(len(vocab)-1))
	var text []byte
	for len(text) < cfg.TextLen {
		text = append(text, vocab[zipf.Uint64()]...)
		text = append(text, ' ')
	}
	text = text[:cfg.TextLen]
	out := make([][]byte, 0, cfg.TextLen/p+1)
	for j := pe; j < cfg.TextLen; j += p {
		out = append(out, text[j:])
	}
	return out
}

// Random generates uniformly random strings (lengths in [1, maxLen]) for
// property tests and microbenchmarks.
func Random(n, maxLen, sigma int, pe, p int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ int64(pe+1)*0x9e3779b9))
	out := make([][]byte, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		s := make([]byte, l)
		for k := range s {
			s[k] = byte('a' + rng.Intn(sigma))
		}
		out[i] = s
	}
	return out
}

// Helpers.

// alphaChar maps digit d to the d-th alphabet character (printable,
// starting at 'a' and wrapping through the byte range).
func alphaChar(d int) byte {
	return byte('a' + d%26)
}

// digitsBase returns the number of base-σ digits needed for values < n.
func digitsBase(n, sigma int) int {
	w := 1
	for v := sigma; v < n; v *= sigma {
		w++
	}
	return w
}

// encodeBase writes i as exactly len(dst) base-σ digits, most significant
// first, using distinct characters per digit value.
func encodeBase(dst []byte, i, sigma int) {
	for k := len(dst) - 1; k >= 0; k-- {
		dst[k] = digitChar(i % sigma)
		i /= sigma
	}
}

// digitChar maps a digit to a character; digits must be distinct and
// ordered, so we use an increasing byte ramp starting at '0'.
func digitChar(d int) byte {
	return byte('0' + d)
}

// Gather concatenates the fragments of all PEs (test/tool helper).
func Gather(gen func(pe int) [][]byte, p int) [][]byte {
	var all [][]byte
	for pe := 0; pe < p; pe++ {
		all = append(all, gen(pe)...)
	}
	return all
}
