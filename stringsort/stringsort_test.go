package stringsort

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"dss/internal/comm"
	"dss/internal/input"
	"dss/internal/strutil"
)

func genInputs(rng *rand.Rand, p, nPerPE int) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = input.Random(nPerPE, 18, 3, pe, p, rng.Int63())
	}
	return inputs
}

func flatten(inputs [][][]byte) [][]byte {
	var all [][]byte
	for _, in := range inputs {
		all = append(all, in...)
	}
	return all
}

func TestSortAllAlgorithmsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, algo := range Algorithms {
		inputs := genInputs(rng, 6, 150)
		res, err := Sort(inputs, Config{
			Algorithm: algo,
			Seed:      7,
			Validate:  true,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		var concat [][]byte
		for _, pe := range res.PEs {
			concat = append(concat, pe.Strings...)
		}
		if !strutil.IsSorted(concat) {
			t.Fatalf("%v: output not globally sorted", algo)
		}
		if strutil.MultisetHash(concat) != strutil.MultisetHash(flatten(inputs)) {
			t.Fatalf("%v: output not a permutation", algo)
		}
		if res.Stats.BytesSent <= 0 || res.Stats.ModelTime <= 0 {
			t.Fatalf("%v: missing statistics: %+v", algo, res.Stats)
		}
	}
}

func TestSortStringsConvenience(t *testing.T) {
	words := []string{"pear", "apple", "fig", "banana", "apple", "date", ""}
	got, err := SortStrings(words, Config{P: 3, Algorithm: PDMS})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{}, words...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d strings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPDMSPrefixOnlyWithoutReconstruct pins PDMS's output contract. In
// RAM, Sort returns the input's lines: each string is the input string its
// origin names, aliasing the caller's input, and there is no LCP column.
// Validate's multiset check covers them, so a fragment with one line
// dropped or duplicated fails it, which the order check alone lets pass.
// Only a budgeted run's files hold the prefixes, and only then is the
// result PrefixOnly.
func TestPDMSPrefixOnlyWithoutReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	inputs := genInputs(rng, 4, 100)
	for _, algo := range []Algorithm{PDMS, PDMSGolomb} {
		res, err := Sort(inputs, Config{Algorithm: algo, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.PrefixOnly {
			t.Fatalf("%v: in-RAM result is PrefixOnly", algo)
		}
		for pe, out := range res.PEs {
			if len(out.Origins) != len(out.Strings) || out.LCPs != nil {
				t.Fatalf("%v PE %d: %d origins and %d LCPs for %d strings", algo, pe, len(out.Origins), len(out.LCPs), len(out.Strings))
			}
			for i, s := range out.Strings {
				o := out.Origins[i]
				if in := inputs[o.PE][o.Index]; unsafe.SliceData(s) != unsafe.SliceData(in) || len(s) != len(in) {
					t.Fatalf("%v PE %d: string %d is not the input string its origin names", algo, pe, i)
				}
			}
		}
		bu, err := Sort(inputs, budgetConfig(t, Config{Algorithm: algo, Validate: true}, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if !bu.PrefixOnly {
			t.Fatalf("%v: budgeted result is not PrefixOnly", algo)
		}
	}

	res, err := Sort(inputs, Config{Algorithm: PDMS})
	if err != nil {
		t.Fatal(err)
	}
	// check runs the validator runRank builds for an in-RAM PDMS fragment
	// on the fragments frags, with or without its multiset check.
	check := func(frags [][][]byte, multiset bool) error {
		return comm.New(len(frags)).Run(func(c *comm.Comm) error {
			chk := &streamCheck{multiset: multiset}
			for _, s := range frags[c.Rank()] {
				chk.add(s, 0)
			}
			return chk.finish(c, inputs[c.Rank()])
		})
	}
	for _, tc := range []struct {
		name string
		edit func([][]byte) [][]byte
	}{
		{"intact", func(ss [][]byte) [][]byte { return ss }},
		{"dropped", func(ss [][]byte) [][]byte { return ss[1:] }},
		{"duplicated", func(ss [][]byte) [][]byte { return append([][]byte{ss[0]}, ss...) }},
	} {
		frags := make([][][]byte, len(res.PEs))
		for pe, out := range res.PEs {
			frags[pe] = out.Strings
		}
		frags[1] = tc.edit(frags[1])
		err := check(frags, true)
		if intact := tc.name == "intact"; (err == nil) != intact {
			t.Fatalf("%s fragment: Validate returned %v", tc.name, err)
		}
		if err := check(frags, false); err != nil {
			t.Fatalf("%s fragment: the order check alone returned %v", tc.name, err)
		}
	}
}

// TestLookupOriginOutOfRange pins that an origin naming no input string is
// an error for Sort to return, not a panic.
func TestLookupOriginOutOfRange(t *testing.T) {
	inputs := [][][]byte{{[]byte("a"), []byte("b")}, {[]byte("c")}}
	if s, err := lookupOrigin(inputs, Origin{PE: 1, Index: 0}); err != nil || string(s) != "c" {
		t.Fatalf("lookupOrigin(1, 0) = %q, %v", s, err)
	}
	for _, o := range []Origin{{-1, 0}, {2, 0}, {0, -1}, {0, 2}, {1, 1}} {
		if _, err := lookupOrigin(inputs, o); err == nil {
			t.Fatalf("origin %+v accepted", o)
		}
	}
}

// TestArenaAliasesOrCopiesOnce pins where the in-RAM Result's arrays live,
// the invariant that keeps Sort's allocation flat: for MS and PDMS on 4
// PEs, every output string either aliases an input string (in RAM a PE
// keeps its own strings, and PDMS looks every origin up) or lies in one
// per-PE byte array, the received strings back to back in output order and
// exactly as many characters as the PE received from the others; and the
// LCP and origin columns are exactly n long.
func TestArenaAliasesOrCopiesOnce(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(109))
	inputs := make([][][]byte, p)
	source := map[string]int{} // every string is unique: content names its PE
	for pe := range inputs {
		for i := 0; i < 300; i++ {
			s := []byte(fmt.Sprintf("%s%d/%d", string(rune('a'+rng.Intn(3)))+string(rune('a'+rng.Intn(3))), i, pe))
			inputs[pe] = append(inputs[pe], s)
			source[string(s)] = pe
		}
	}
	alias := map[*byte]int{} // an input string's first byte → its PE
	for pe, in := range inputs {
		for _, s := range in {
			alias[unsafe.SliceData(s)] = pe
		}
	}
	for _, algo := range []Algorithm{MS, PDMS} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := Sort(inputs, Config{Algorithm: algo, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			for pe, out := range res.PEs {
				n := len(out.Strings)
				if n == 0 {
					t.Fatalf("PE %d holds no strings: nothing to check", pe)
				}
				if lcp := algo == MS; lcp != (out.LCPs != nil) || (lcp && (len(out.LCPs) != n || cap(out.LCPs) != n)) {
					t.Fatalf("PE %d: LCP column len %d cap %d for %d strings", pe, len(out.LCPs), cap(out.LCPs), n)
				}
				if orig := algo == PDMS; orig != (out.Origins != nil) || (orig && (len(out.Origins) != n || cap(out.Origins) != n)) {
					t.Fatalf("PE %d: origin column len %d cap %d for %d strings", pe, len(out.Origins), cap(out.Origins), n)
				}
				var base *byte
				copied, received := 0, 0
				for k, s := range out.Strings {
					from := source[string(s)]
					if algo == PDMS {
						from = out.Origins[k].PE
					}
					if from != pe {
						received += len(s)
					}
					if owner, ok := alias[unsafe.SliceData(s)]; ok {
						if owner != from || (owner != pe && algo == MS) {
							t.Fatalf("PE %d: string %d from PE %d aliases PE %d's input", pe, k, from, owner)
						}
						continue
					}
					if base == nil {
						base = unsafe.SliceData(s)
					}
					if unsafe.SliceData(s) != (*byte)(unsafe.Add(unsafe.Pointer(base), copied)) {
						t.Fatalf("PE %d: copied string %d is not next in the arena", pe, k)
					}
					copied += len(s)
				}
				if algo == PDMS {
					received = 0 // every string is looked up, none copied
				}
				if copied != received || received == 0 && algo == MS {
					t.Fatalf("PE %d: %d characters copied, %d received", pe, copied, received)
				}
			}
		})
	}
}

func TestValidateCatchesNothingOnGoodRuns(t *testing.T) {
	// Validation across several p values including p > fragments.
	rng := rand.New(rand.NewSource(103))
	inputs := genInputs(rng, 3, 80)
	res, err := Sort(inputs, Config{P: 5, Algorithm: MS, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEs) != 5 {
		t.Fatalf("got %d fragments", len(res.PEs))
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("pdms-golomb"); err != nil {
		t.Fatal("case-insensitive parse failed")
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Sort(nil, Config{}); err == nil {
		t.Fatal("zero PEs accepted")
	}
	if _, err := Sort(make([][][]byte, 4), Config{P: 2}); err == nil {
		t.Fatal("more fragments than PEs accepted")
	}
	// The zero Config runs hQuick, not MS: origins come back, and only the
	// first 2^⌊log₂ 3⌋ = 2 of 3 PEs hold output.
	three := [][][]byte{{[]byte("c"), []byte("d")}, {[]byte("a")}, {[]byte("b")}}
	if res, err := Sort(three, Config{}); err != nil || res.PEs[0].Origins == nil || len(res.PEs[2].Strings) != 0 {
		t.Fatalf("zero Config is not hQuick: %+v, %v", res, err)
	}
}

func TestTieBreakBalancesDuplicatesEndToEnd(t *testing.T) {
	p := 6
	inputs := make([][][]byte, p)
	for pe := range inputs {
		for j := 0; j < 200; j++ {
			inputs[pe] = append(inputs[pe], []byte("same-everywhere"))
		}
	}
	run := func(tie bool) int {
		res, err := Sort(inputs, Config{Algorithm: MS, TieBreak: tie, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		m := 0
		for _, pe := range res.PEs {
			if len(pe.Strings) > m {
				m = len(pe.Strings)
			}
		}
		return m
	}
	if plain := run(false); plain < 1000 {
		t.Fatalf("plain MS balanced all-equal input unexpectedly: %d", plain)
	}
	if tie := run(true); tie > 2*200 {
		t.Fatalf("tie-break fragment %d of 1200", tie)
	}
}

func TestRandomSamplingConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	inputs := genInputs(rng, 4, 200)
	res, err := Sort(inputs, Config{Algorithm: MS, RandomSampling: true, Seed: 3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PEs) != 4 {
		t.Fatal("wrong PE count")
	}
}

func TestEstimateDNSuggestsByWorkload(t *testing.T) {
	p := 4
	// Suffix-like tiny-D workload.
	small := make([][][]byte, p)
	for pe := range small {
		small[pe] = input.SuffixInstance(input.SuffixConfig{TextLen: 2000, Seed: 9}, pe, p)
	}
	est, err := EstimateDN(small, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Suggested != PDMS {
		t.Fatalf("tiny-D workload suggested %v, want PDMS (est %.1f)", est.Suggested, est.AvgDist)
	}
	// D ≈ N workload.
	big := make([][][]byte, p)
	for pe := range big {
		big[pe] = input.DN(input.DNConfig{StringsPerPE: 500, Length: 80, Ratio: 1, Seed: 9}, pe, p)
	}
	est, err = EstimateDN(big, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Suggested != MS {
		t.Fatalf("D≈N workload suggested %v, want MS (est %.1f)", est.Suggested, est.AvgDist)
	}
}

func TestStatsOrderingAcrossAlgorithms(t *testing.T) {
	// On a small-D workload the volume ordering of the paper must hold:
	// PDMS < MS < MS-simple.
	p := 8
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = input.DN(input.DNConfig{
			StringsPerPE: 300, Length: 120, Ratio: 0.25, Seed: 5,
		}, pe, p)
	}
	vol := map[Algorithm]int64{}
	for _, algo := range []Algorithm{MSSimple, MS, PDMS} {
		res, err := Sort(inputs, Config{Algorithm: algo, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		vol[algo] = res.Stats.BytesSent
	}
	if !(vol[PDMS] < vol[MS] && vol[MS] < vol[MSSimple]) {
		t.Fatalf("volume ordering violated: PDMS=%d MS=%d MS-simple=%d",
			vol[PDMS], vol[MS], vol[MSSimple])
	}
}
