package dupdetect

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dss/internal/comm"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/input"
	"dss/internal/stats"
	"dss/internal/strsort"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// runApprox distributes the global string set over p PEs round-robin, runs
// ApproxDist collectively and returns the per-string bounds in global order
// plus the machine for volume inspection.
func runApprox(t *testing.T, global [][]byte, p int, opt Options) ([]int32, *comm.Machine) {
	t.Helper()
	locals := deal(global, p, 0)
	results, m := runOnMachine(t, locals, opt, ApproxDist)
	dist := make([]int32, len(global))
	for pe, res := range results {
		if len(res.Dist) != len(locals[pe]) {
			t.Fatalf("PE %d: got %d bounds for %d strings", pe, len(res.Dist), len(locals[pe]))
		}
		for j, d := range res.Dist {
			dist[pe+j*p] = d
		}
	}
	return dist, m
}

// runOnMachine runs approx collectively on a fresh machine, PE i on
// locals[i], and returns every PE's result and the machine.
func runOnMachine(t testing.TB, locals [][][]byte, opt Options,
	approx func(*comm.Comm, [][]byte, Options) Result) ([]Result, *comm.Machine) {
	t.Helper()
	m := comm.New(len(locals))
	results := make([]Result, len(locals))
	err := m.Run(func(c *comm.Comm) error {
		results[c.Rank()] = approx(c, locals[c.Rank()], opt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, m
}

// deal distributes global round-robin over the PEs first..p-1 (first > 0
// leaves PEs empty).
func deal(global [][]byte, p, first int) [][][]byte {
	locals := make([][][]byte, p)
	first = min(first, p-1)
	for i, s := range global {
		pe := first + i%(p-first)
		locals[pe] = append(locals[pe], s)
	}
	return locals
}

// sortLocals sorts every PE's strings (the spines are fresh, the strings
// shared) and returns them with their LCP arrays: what core.PDMS hands
// ApproxDist after Step 1.
func sortLocals(locals [][][]byte) (sorted [][][]byte, lcps [][]int32) {
	sorted, lcps = make([][][]byte, len(locals)), make([][]int32, len(locals))
	for pe, ss := range locals {
		sorted[pe] = slices.Clone(ss)
		lcps[pe], _ = strsort.SortLCP(sorted[pe], nil)
	}
	return sorted, lcps
}

// withLCP is ApproxDist given each PE's LCP array, as core.PDMS calls it.
func withLCP(lcps [][]int32) func(*comm.Comm, [][]byte, Options) Result {
	return func(c *comm.Comm, ss [][]byte, opt Options) Result {
		opt.LCP = lcps[c.Rank()]
		return ApproxDist(c, ss, opt)
	}
}

// checkSound fails the test unless the bounds are sound (see orderPreserved).
func checkSound(t *testing.T, global [][]byte, dist []int32) {
	t.Helper()
	if err := orderPreserved(global, dist); err != nil {
		t.Fatal(err)
	}
}

func genStrings(rng *rand.Rand, n, maxLen, sigma int) [][]byte {
	ss := make([][]byte, n)
	for i := range ss {
		l := rng.Intn(maxLen + 1)
		s := make([]byte, l)
		for j := range s {
			s[j] = byte('a' + rng.Intn(sigma))
		}
		ss[i] = s
	}
	return ss
}

func TestApproxDistSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, p := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 4; trial++ {
			global := genStrings(rng, 60, 24, 2)
			dist, _ := runApprox(t, global, p, Options{GroupID: 1})
			checkSound(t, global, dist)
		}
	}
}

func TestApproxDistUpperBoundsTrueDist(t *testing.T) {
	// With collision-free fingerprints, Dist[i] >= min(DIST(s_i), |s_i|):
	// the bound can only overestimate.
	rng := rand.New(rand.NewSource(52))
	global := genStrings(rng, 200, 30, 3)
	trueDist := strutil.DistinguishingPrefixes(global)
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1})
	for i := range global {
		if dist[i] < trueDist[i] {
			t.Fatalf("bound %d below true DIST %d for %q", dist[i], trueDist[i], global[i])
		}
	}
}

func TestApproxDistTightForUniquePrefixes(t *testing.T) {
	// Strings diverging in the first 8 characters must resolve in the very
	// first round with the default initial guess.
	var global [][]byte
	for i := 0; i < 64; i++ {
		s := append([]byte{byte('A' + i/8), byte('a' + i%8)}, bytes.Repeat([]byte("tail"), 16)...)
		global = append(global, s)
	}
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1, initialLen: 8})
	for i, d := range dist {
		if d != 8 {
			t.Fatalf("string %d: bound %d, want 8 (first-round resolution)", i, d)
		}
	}
}

func TestApproxDistExactDuplicates(t *testing.T) {
	// Full duplicates can never get a unique fingerprint; they must resolve
	// by the length rule with bound |s|.
	global := [][]byte{
		[]byte("duplicate-string"), []byte("duplicate-string"),
		[]byte("duplicate-string"), []byte("unique-string-xx"),
	}
	dist, _ := runApprox(t, global, 2, Options{GroupID: 1})
	for i := 0; i < 3; i++ {
		if int(dist[i]) != len(global[i]) {
			t.Fatalf("duplicate %d: bound %d, want full length %d", i, dist[i], len(global[i]))
		}
	}
	checkSound(t, global, dist)
}

func TestApproxDistPrefixChain(t *testing.T) {
	// s_k = "a"*k: every string is a prefix of the next; all must be sent
	// in full (their ends are their only distinguishers).
	var global [][]byte
	for k := 0; k <= 20; k++ {
		global = append(global, bytes.Repeat([]byte("a"), k))
	}
	dist, _ := runApprox(t, global, 3, Options{GroupID: 1})
	for i, s := range global {
		if int(dist[i]) != len(s) {
			t.Fatalf("chain string %d: bound %d, want %d", i, dist[i], len(s))
		}
	}
	checkSound(t, global, dist)
}

func TestApproxDistEmptyInput(t *testing.T) {
	m := comm.New(3)
	err := m.Run(func(c *comm.Comm) error {
		res := ApproxDist(c, nil, Options{GroupID: 1})
		if len(res.Dist) != 0 {
			return fmt.Errorf("bounds for empty input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestApproxDistLongSharedPrefixNeedsIterations(t *testing.T) {
	// Two strings sharing 1000 characters force the doubling loop deep.
	a := append(bytes.Repeat([]byte("z"), 1000), 'a')
	b := append(bytes.Repeat([]byte("z"), 1000), 'b')
	global := [][]byte{a, b}
	dist, _ := runApprox(t, global, 2, Options{GroupID: 1})
	checkSound(t, global, dist)
	for i, d := range dist {
		if int(d) < 1001 {
			t.Fatalf("string %d: bound %d too small (prefixes equal up to 1000)", i, d)
		}
	}
}

func TestApproxDistDoublingBoundedOvershoot(t *testing.T) {
	// With ε=1 (doubling) the bound is below 2·DIST for strings resolved by
	// uniqueness (geometric overshoot), modulo the initial guess.
	rng := rand.New(rand.NewSource(53))
	var global [][]byte
	for i := 0; i < 100; i++ {
		// ~64-character shared prefix region, then unique tails.
		s := append(bytes.Repeat([]byte("q"), 64), []byte(fmt.Sprintf("%06d", i))...)
		global = append(global, s)
		_ = rng
	}
	trueDist := strutil.DistinguishingPrefixes(global)
	dist, _ := runApprox(t, global, 4, Options{GroupID: 1, initialLen: 8})
	for i := range global {
		if int(dist[i]) > 2*int(trueDist[i])+8 && int(dist[i]) != len(global[i]) {
			t.Fatalf("string %d: bound %d overshoots true DIST %d by more than 2×",
				i, dist[i], trueDist[i])
		}
	}
}

func TestGolombVariantAgreesAndSavesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	global := genStrings(rng, 4000, 40, 2)
	plain, mPlain := runApprox(t, global, 8, Options{GroupID: 1})
	gol, mGol := runApprox(t, global, 8, Options{GroupID: 1, Golomb: true})
	for i := range plain {
		if plain[i] != gol[i] {
			t.Fatalf("Golomb variant changed bound %d: %d vs %d", i, gol[i], plain[i])
		}
	}
	vPlain := mPlain.Report().TotalBytesSent()
	vGol := mGol.Report().TotalBytesSent()
	if vGol >= vPlain {
		t.Fatalf("Golomb coding did not reduce volume: %d vs %d", vGol, vPlain)
	}
}

func TestEpsilonGrowthFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	global := genStrings(rng, 300, 50, 2)
	for _, eps := range []float64{0.5, 1, 2, 3} {
		dist, _ := runApprox(t, global, 4, Options{GroupID: 1, Eps: eps})
		checkSound(t, global, dist)
	}
}

func TestVolumePerStringLogarithmic(t *testing.T) {
	// Theorem 6: the duplicate detection sends O(log p) bits per string.
	// Without Golomb coding a round costs the whole bytes that hold
	// fpBits + log₂(n/p) bits (3 here) plus the verdict bit, and nearly
	// every string resolves in the first: less than the 8 bytes of one
	// full-width fingerprint.
	rng := rand.New(rand.NewSource(56))
	n := 8000
	global := make([][]byte, n)
	for i := range global {
		global[i] = []byte(fmt.Sprintf("%08d-%08d", rng.Intn(1000000), i))
	}
	_, m := runApprox(t, global, 8, Options{GroupID: 1})
	perString := float64(m.Report().TotalBytesSent()) / float64(n)
	if perString > 8 {
		t.Fatalf("duplicate detection sends %.1f bytes/string; want ≤ 8", perString)
	}
}

// differentialInputs are the shapes the round loop must get right: each
// stresses one of the arrays, cut-offs or rules named in its comment.
func differentialInputs(rng *rand.Rand) map[string][][]byte {
	in := map[string][][]byte{
		"none":   nil,
		"random": genStrings(rng, 6000, 24, 2), // groups on both sides of radixMin at every p
		"chain":  nil,                          // proper prefixes: terminated fingerprints
		"shorter than the first guess": append(genStrings(rng, 40, 3, 2),
			nil, []byte{}, nil, []byte{}),
	}
	for k := 0; k <= 70; k++ {
		in["chain"] = append(in["chain"], bytes.Repeat([]byte("a"), k))
	}
	// One 40-character prefix: for two rounds every fingerprint is equal,
	// goes to one PE and Golomb-codes to gaps of 0 — or, with the LCP
	// array, is sent once per PE. Counts straddle hashBlock and (per
	// destination group) radixMin.
	for _, n := range []int{1, hashBlock - 1, hashBlock, hashBlock + 1, radixMin - 1, radixMin, radixMin + 1, 700} {
		var ss [][]byte
		for i := 0; i < n; i++ {
			s := append(bytes.Repeat([]byte("p"), 40), fmt.Sprintf("%07d", rng.Intn(5*n))...)
			ss = append(ss, s)
		}
		in[fmt.Sprintf("shared prefix x%d", n)] = ss
	}
	// Exact duplicates, within a PE (adjacent multiples of p apart) and
	// across PEs (neighbours), between unique strings.
	dups := genStrings(rng, 300, 30, 3)
	for i := 0; i < 300; i += 7 {
		dups = append(dups, dups[i], dups[i+1])
	}
	for i := 0; i < 64; i++ {
		dups = append(dups, []byte("the-same-string-on-every-PE"))
	}
	in["duplicates"] = dups
	// Duplicate-heavy: 40 distinct strings, 50 copies each, so after the
	// local sort nearly every candidate repeats its neighbour's prefix in
	// every round and runs of skipped copies end at every length.
	distinct := genStrings(rng, 40, 40, 2)
	for i := 0; i < 2000; i++ {
		in["duplicate-heavy"] = append(in["duplicate-heavy"], distinct[rng.Intn(len(distinct))])
	}
	return in
}

// TestDifferentialAgainstReference is the guard of the round loop and of
// any later rewrite. On locally sorted strings, in both wire formats and
// at the default, a tiny and the full-width hash range: without the LCP
// array ApproxDist must agree with the map-based oracle
// (same range mapping, every candidate sent) on every output and on every
// PE's byte, message and work counters; with it, on every output, message
// count and billed character, sending no more bytes.
func TestDifferentialAgainstReference(t *testing.T) {
	inputs := differentialInputs(rand.New(rand.NewSource(60)))
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		for _, golomb := range []bool{false, true} {
			for _, fixed := range []uint64{0, 61, math.MaxUint64} {
				opt := Options{GroupID: 1, Seed: uint64(p), Golomb: golomb, fixedRange: fixed}
				for _, name := range names {
					for _, first := range []int{0, 2} { // 2: PEs 0 and 1 hold nothing
						if first > 0 && (p < 3 || name == "random") {
							continue
						}
						locals, lcps := sortLocals(deal(inputs[name], p, first))
						want, wantM := runOnMachine(t, locals, opt, referenceApproxDist)
						all, allM := runOnMachine(t, locals, opt, ApproxDist)
						once, onceM := runOnMachine(t, locals, opt, withLCP(lcps))
						label := fmt.Sprintf("p=%d %+v %q first=%d", p, opt, name, first)
						var bytesAll, bytesOnce int64
						for pe := range locals {
							if !reflect.DeepEqual(all[pe], want[pe]) {
								t.Fatalf("%s PE %d: result\n got %+v\nwant %+v", label, pe, all[pe], want[pe])
							}
							if !reflect.DeepEqual(once[pe], want[pe]) {
								t.Fatalf("%s PE %d: result with LCP\n got %+v\nwant %+v", label, pe, once[pe], want[pe])
							}
							w := wantM.Report().PEs[pe].Phases
							if g := allM.Report().PEs[pe].Phases; g != w {
								t.Fatalf("%s PE %d: counters\n got %+v\nwant %+v", label, pe, g, w)
							}
							g, w1 := onceM.Report().PEs[pe].Phases[stats.PhaseDupDetect], w[stats.PhaseDupDetect]
							if g.Work != w1.Work || g.Messages != w1.Messages {
								t.Fatalf("%s PE %d: with LCP work %d messages %d, want %d and %d",
									label, pe, g.Work, g.Messages, w1.Work, w1.Messages)
							}
							bytesAll += w1.BytesSent
							bytesOnce += g.BytesSent
						}
						if bytesOnce > bytesAll {
							t.Fatalf("%s: %d bytes with LCP, %d without", label, bytesOnce, bytesAll)
						}
					}
				}
			}
		}
	}
}

// orderPreserved checks the two soundness properties of the approximation:
// no bound exceeds its string's length, and sorting the transmitted
// prefixes global[i][:dist[i]] sorts the strings — in prefix order the full
// strings ascend, and prefixes tie only for equal strings.
func orderPreserved(global [][]byte, dist []int32) error {
	idx := make([]int, len(global))
	for i := range idx {
		idx[i] = i
		if int(dist[i]) > len(global[i]) {
			return fmt.Errorf("bound %d exceeds length of %q", dist[i], global[i])
		}
	}
	prefix := func(i int) []byte { return global[i][:dist[i]] }
	sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(prefix(idx[a]), prefix(idx[b])) < 0 })
	for k := 1; k < len(idx); k++ {
		a, b := idx[k-1], idx[k]
		switch cmp := bytes.Compare(global[a], global[b]); {
		case cmp > 0:
			return fmt.Errorf("prefixes invert order: %q(%d) before %q(%d)", global[a], dist[a], global[b], dist[b])
		case cmp < 0 && bytes.Equal(prefix(a), prefix(b)):
			return fmt.Errorf("distinct strings %q, %q tie under prefix %q", global[a], global[b], prefix(a))
		}
	}
	return nil
}

// runSorted deals global over p PEs, sorts locally and runs ApproxDist
// with or without the LCP arrays; it returns the strings and bounds PE by
// PE in one flat order, and the machine.
func runSorted(t testing.TB, global [][]byte, p int, opt Options, useLCP bool) ([][]byte, []int32, *comm.Machine) {
	t.Helper()
	locals, lcps := sortLocals(deal(global, p, 0))
	approx := ApproxDist
	if useLCP {
		approx = withLCP(lcps)
	}
	results, m := runOnMachine(t, locals, opt, approx)
	var flat [][]byte
	var dist []int32
	for pe, res := range results {
		flat = append(flat, locals[pe]...)
		dist = append(dist, res.Dist...)
	}
	return flat, dist, m
}

// TestTinyRangeStaysSound forces hash ranges of a few values, so most
// rounds are decided by collisions: bounds only grow, and the transmitted
// prefixes still sort the strings.
func TestTinyRangeStaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	inputs := differentialInputs(rng)
	for _, p := range []int{1, 3, 4, 8} {
		for name, global := range inputs {
			_, exact, _ := runSorted(t, global, p, Options{GroupID: 1, Seed: 9, fixedRange: math.MaxUint64}, true)
			for _, fixed := range []uint64{1, 2, 7, 300} {
				opt := Options{GroupID: 1, Seed: 9, Golomb: fixed%2 == 1, fixedRange: fixed}
				for _, useLCP := range []bool{false, true} {
					flat, dist, _ := runSorted(t, global, p, opt, useLCP)
					if err := orderPreserved(flat, dist); err != nil {
						t.Fatalf("p=%d range=%d %q lcp=%v: %v", p, fixed, name, useLCP, err)
					}
					for i := range dist {
						if dist[i] < exact[i] {
							t.Fatalf("p=%d range=%d %q lcp=%v: bound %d of %q below the full-width bound %d",
								p, fixed, name, useLCP, dist[i], flat[i], exact[i])
						}
					}
				}
			}
		}
	}
}

// TestRangeSizedFingerprintsCostUnderOnePercent is the price of rule (2)
// on the benchmark's kind of input: against the full-width run the mean
// bound grows by less than 1 %, while the exchange ships under half the
// bytes.
func TestRangeSizedFingerprintsCostUnderOnePercent(t *testing.T) {
	const p = 4
	var global [][]byte
	for pe := 0; pe < p; pe++ {
		global = append(global, input.DN(input.DNConfig{StringsPerPE: 5000, Length: 100, Ratio: 0.25}, pe, p)...)
	}
	global = shuffled(1, global)
	sum := func(fixed uint64) (total, sent int64) {
		flat, dist, m := runSorted(t, global, p, Options{GroupID: 1, Golomb: true, Seed: 1, fixedRange: fixed}, true)
		if err := orderPreserved(flat, dist); err != nil {
			t.Fatalf("range %d: %v", fixed, err)
		}
		for _, d := range dist {
			total += int64(d)
		}
		return total, m.Report().TotalBytesSent()
	}
	full, fullBytes := sum(math.MaxUint64)
	sized, sizedBytes := sum(0)
	if sized < full || float64(sized) >= 1.01*float64(full) {
		t.Fatalf("bounds sum to %d with range-sized fingerprints, %d at full width", sized, full)
	}
	if 2*sizedBytes >= fullBytes {
		t.Fatalf("range-sized fingerprints ship %d bytes, full-width ones %d", sizedBytes, fullBytes)
	}
}

// fakePeer plays PE 1 of a two-PE round by hand — the termination
// allreduce announcing no candidates, then the request exchange sending
// requests to PE 0, then (unless verdict is nil) the verdict exchange —
// while PE 0 runs ApproxDist on ss. It returns PE 0's failure.
func fakePeer(t *testing.T, ss [][]byte, opt Options, requests, verdict []byte) string {
	t.Helper()
	opt.GroupID = 1
	err := comm.New(2).Run(func(c *comm.Comm) error {
		if c.Rank() == 0 {
			ApproxDist(c, ss, opt)
			return nil
		}
		g := comm.NewGroup(c, comm.WorldRanks(2), opt.GroupID)
		g.AllreduceUint64([]uint64{0}, comm.Sum)
		g.Alltoallv([][]byte{requests, {0}})
		if verdict != nil {
			g.Alltoallv([][]byte{verdict, {0}})
		}
		return nil
	})
	if err == nil {
		t.Fatal("PE 0 accepted the damaged message")
	}
	return err.Error()
}

// TestDamagedMessagesAreRejected hands PE 0 messages no correct peer sends
// in that round: each must stop it with a panic that names the sender and
// the round.
func TestDamagedMessagesAreRejected(t *testing.T) {
	ss := genStrings(rand.New(rand.NewSource(63)), 10, 20, 2)
	// 10 + 0 candidates: the range is 10<<fpBits, a bucket half of it.
	bucket := uint64(10<<fpBits) / 2
	width := (bits.Len64(bucket-1) + 7) / 8
	for _, tc := range []struct {
		name             string
		opt              Options
		requests, answer []byte
		want             string
	}{
		{"fixed-width value at the bucket width", Options{},
			wire.AppendUintsFixed(nil, []uint64{3, bucket}, width), nil, "outside the bucket width"},
		{"Golomb value at the bucket width", Options{Golomb: true},
			golomb.EncodeSorted([]uint64{3, bucket}), nil, "outside the bucket width"},
		{"fixed-width list longer than the round", Options{},
			wire.AppendUintsFixed(nil, make([]uint64, 11), width), nil, "11 values in a round of 10"},
		{"Golomb list longer than the round", Options{Golomb: true},
			golomb.EncodeSorted(make([]uint64, 11)), nil, "11 values in a round of 10"},
		{"fixed-width list out of order", Options{},
			wire.AppendUintsFixed(nil, []uint64{3, 2}, width), nil, "does not ascend"},
		{"fixed-width list cut short", Options{},
			wire.AppendUintsFixed(nil, []uint64{1, 2, 3}, width)[:4], nil, "fingerprint message"},
		{"verdicts for requests never made", Options{},
			[]byte{0}, wire.AppendBitset(nil, make([]bool, 1000)), "verdict message"},
	} {
		got := fakePeer(t, ss, tc.opt, tc.requests, tc.answer)
		if !strings.Contains(got, "corrupt") || !strings.Contains(got, "from PE 1 in round 1") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: PE 0 failed with\n%s\nwant a corrupt-message panic naming PE 1, round 1 and %q", tc.name, got, tc.want)
		}
	}
}

// FuzzApproxDistSound: on any small string set, machine size and (tiny)
// hash range, the run with the LCP arrays gives the bounds of the run
// without them, and the transmitted prefixes sort the strings.
func FuzzApproxDistSound(f *testing.F) {
	f.Add([]byte("a,a,ab,abc,abc,abd,,b,ba,ba"), uint8(3), uint8(2), false)
	f.Add([]byte("prefix-one,prefix-one,prefix-two,prefix-two-and-more,p"), uint8(2), uint8(0), true)
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa,aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab,aaaaaaaaaaaaaaaa"), uint8(4), uint8(17), true)
	f.Fuzz(func(t *testing.T, data []byte, pes, span uint8, gol bool) {
		global := bytes.Split(data, []byte{','})
		if len(global) > 200 {
			global = global[:200]
		}
		p := 1 + int(pes)%8
		opt := Options{GroupID: 1, Seed: uint64(span), Golomb: gol, initialLen: 1 + int(span)%4, fixedRange: 1 + uint64(span)%64}
		flat, dist, _ := runSorted(t, global, p, opt, true)
		_, without, _ := runSorted(t, global, p, opt, false)
		if !slices.Equal(dist, without) {
			t.Fatalf("bounds with LCP %v, without %v", dist, without)
		}
		if err := orderPreserved(flat, dist); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSortByFP checks the radix sort against the library sort around its
// cut-off, including keys that share most of their bytes.
func TestSortByFP(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000} {
		for _, mask := range []uint64{^uint64(0), 0xFFFFFFFF, 0xFF00, 0} {
			a := make([]req, n)
			for i := range a {
				a[i] = req{cand: int32(i), fp: rng.Uint64() & mask}
			}
			want := slices.Clone(a)
			sort.SliceStable(want, func(i, j int) bool { return want[i].fp < want[j].fp })
			sortByFP(a, make([]req, n))
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d mask=%x: not the stable order", n, mask)
			}
		}
	}
}

// sink keeps the benchmarked calls' results alive.
var sink int

// shuffled returns ss in the order of the benchmark harness's input file.
func shuffled(seed int64, ss [][]byte) [][]byte {
	rand.New(rand.NewSource(seed)).Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	return ss
}

// BenchmarkApproxDist is the package's rung on the repository benchmark's
// PDMS-Golomb input (500 000 x 200 D/N strings, ratio 0.25, on p = 4 PEs)
// and on a COMMONCRAWL-like share, locally sorted and with the LCP arrays
// as core.PDMS calls it; the nolcp case is the call the benchmark's
// dupdetect probe makes. allocs/op must not follow n: inside the round loop
// only the messages are allocated, so the quarter-size run of each input
// may allocate at most a few more objects per op than the full one saves —
// the benchmark fails otherwise.
func BenchmarkApproxDist(b *testing.B) {
	inputs := []struct {
		name string
		gen  func(pe, scale int) [][]byte
	}{
		{"dn125kx200r025", func(pe, scale int) [][]byte {
			return input.DN(input.DNConfig{StringsPerPE: 125000 / scale, Length: 200, Ratio: 0.25}, pe, 4)
		}},
		{"cc125k", func(pe, scale int) [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: 125000 / scale, Seed: 1}, pe, 4)
		}},
	}
	for _, in := range inputs {
		var allocs [2]float64
		for k, scale := range []int{1, 4} {
			var global [][]byte
			for pe := 0; pe < 4; pe++ {
				global = append(global, in.gen(pe, scale)...)
			}
			locals, lcps := sortLocals(deal(shuffled(1, global), 4, 0))
			opt := Options{GroupID: 1, Golomb: true, Seed: 1}
			run := func(approx func(*comm.Comm, [][]byte, Options) Result, allocs *float64) func(b *testing.B) {
				return func(b *testing.B) {
					var rounds int
					var sent int64
					b.ReportAllocs()
					b.SetBytes(strutil.TotalLen(global))
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, m := runOnMachine(b, locals, opt, approx)
						rounds, sent = res[0].Iterations, m.Report().TotalBytesSent()
						sink += rounds
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					*allocs = float64(after.Mallocs-before.Mallocs) / float64(b.N)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(global)), "ns/str")
					b.ReportMetric(float64(sent)/float64(len(global)), "B/str")
					b.ReportMetric(float64(rounds), "rounds")
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d", in.name, len(global)), run(withLCP(lcps), &allocs[k]))
			if scale == 1 {
				b.Run(fmt.Sprintf("%s/n=%d/nolcp", in.name, len(global)), run(ApproxDist, new(float64)))
			}
		}
		if allocs[1] > 0 && allocs[0] > 1.25*allocs[1]+64 { // both sizes ran
			b.Errorf("%s: %.0f allocs/op at full size, %.0f at a quarter: allocation follows n", in.name, allocs[0], allocs[1])
		}
	}
}

// BenchmarkExtendCold is the number behind the blocked hashing: one PE's
// 100 MB of strings visited in shuffled order, each extended once by 8 to
// 64 bytes from a cold line — plainly, and with the block touch of
// detector.fingerprints in front.
func BenchmarkExtendCold(b *testing.B) {
	ss := shuffled(1, input.DN(input.DNConfig{StringsPerPE: 500000, Length: 200, Ratio: 0.25}, 0, 1))
	h := fingerprint.New(1)
	upto := make([]int, len(ss))
	rng := rand.New(rand.NewSource(2))
	var hashed int64
	for i := range upto {
		upto[i] = 8 << rng.Intn(4)
		hashed += int64(upto[i])
	}
	run := func(b *testing.B, block int) {
		b.SetBytes(hashed)
		for i := 0; i < b.N; i++ {
			var acc uint64
			var touch byte
			for lo := 0; lo < len(ss); lo += block {
				hi := min(lo+block, len(ss))
				if block > 1 {
					for j := lo; j < hi; j++ {
						touch += ss[j][0] + ss[j][upto[j]-1]
					}
				}
				for j := lo; j < hi; j++ {
					acc += h.Finalize(h.Extend(fingerprint.State{}, ss[j], upto[j]))
				}
			}
			sink += int(acc) + int(touch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ss)), "ns/str")
	}
	b.Run("plain", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("block=%d", hashBlock), func(b *testing.B) { run(b, hashBlock) })
}

// referenceApproxDist is the map-based round loop ApproxDist's flat one
// replaced, kept as the oracle of TestDifferentialAgainstReference: the same
// fingerprints, range mapping, routing, messages and billing, one map per
// question — and no use of Options.LCP: every candidate is hashed and sent
// in every round.
func referenceApproxDist(c *comm.Comm, ss [][]byte, opt Options) Result {
	opt.setDefaults()
	prevPhase := c.SetPhase(stats.PhaseDupDetect)
	defer c.SetPhase(prevPhase)

	p := c.P()
	g := comm.NewGroup(c, comm.WorldRanks(p), opt.GroupID)
	hasher := fingerprint.New(opt.Seed)

	n := len(ss)
	res := Result{Dist: make([]int32, n)}
	states := make([]fingerprint.State, n)
	candidates := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		candidates = append(candidates, int32(i))
	}

	ell := opt.initialLen
	for {
		// Global termination check.
		remaining := g.AllreduceUint64([]uint64{uint64(len(candidates))}, comm.Sum)[0]
		if remaining == 0 {
			break
		}
		res.Iterations++
		hashRange := remaining << fpBits
		if hashRange>>fpBits != remaining {
			hashRange = math.MaxUint64
		}
		if opt.fixedRange != 0 {
			hashRange = opt.fixedRange
		}

		// Fingerprint the length-ℓ prefixes, extending incrementally.
		// A string shorter than ℓ participates one final time with a
		// *terminated* fingerprint — it must keep blocking longer strings
		// that have it as a proper prefix (in the paper's model the
		// 0-terminator is a real character) — and then resolves with bound
		// |s| regardless of the verdict: transmitting the whole string is
		// always sufficient, duplicates included.
		lengthResolve := make(map[int32]bool)
		allReqs := make([]req, 0, len(candidates))
		for _, ci := range candidates {
			// Strictly shorter than ℓ: the guess has grown past the end of
			// the string, so the "prefix" includes the terminator. At
			// exactly ℓ == |s| the prefix is the whole string WITHOUT the
			// terminator and must collide with equal-length prefixes of
			// longer strings.
			var fp uint64
			if n := len(ss[ci]); n < ell {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], n)
				c.AddWork(int64(n - prevPos))
				fp = hasher.FinalizeTerminated(states[ci])
				lengthResolve[ci] = true
			} else {
				prevPos := states[ci].Pos()
				states[ci] = hasher.Extend(states[ci], ss[ci], ell)
				c.AddWork(int64(ell - prevPos)) // only fresh characters are hashed
				fp = hasher.Finalize(states[ci])
			}
			v, _ := bits.Mul64(fp, hashRange)
			allReqs = append(allReqs, req{cand: ci, fp: v})
		}

		uniqueCands := referenceUniqueRound(g, p, allReqs, hashRange, opt.Golomb)

		// Resolve candidates: unique fingerprints prove distinguishing
		// prefixes; strings shorter than ℓ resolve with their full length
		// after their terminated blocking round.
		live := candidates[:0]
		for _, ci := range candidates {
			switch {
			case lengthResolve[ci]:
				res.Dist[ci] = int32(len(ss[ci]))
			case uniqueCands[ci]:
				res.Dist[ci] = int32(ell)
			default:
				live = append(live, ci)
			}
		}
		candidates = live

		// Grow the guess geometrically.
		next := int(float64(ell) * (1 + opt.Eps))
		if next <= ell {
			next = ell + 1
		}
		ell = next
	}
	return res
}

// referenceUniqueRound routes each request's value in [0, hashRange) to the
// PE owning that part of the range, counts global multiplicities there,
// and returns the set of candidates whose value is globally unique. One
// collective call per PE.
func referenceUniqueRound(g *comm.Group, p int, reqs []req, hashRange uint64, useGolomb bool) map[int32]bool {
	// PE d owns [d·bucket, (d+1)·bucket) and is sent values minus its base,
	// in the fewest whole bytes that hold bucket-1 when not Golomb coded.
	bucket := hashRange / uint64(p)
	if hashRange%uint64(p) != 0 {
		bucket++
	}
	width := 1
	for width < 8 && (bucket-1)>>(8*width) != 0 {
		width++
	}
	perDest := make([][]req, p)
	for _, r := range reqs {
		d := r.fp / bucket
		perDest[d] = append(perDest[d], req{cand: r.cand, fp: r.fp % bucket})
	}

	parts := make([][]byte, p)
	for d := 0; d < p; d++ {
		if useGolomb {
			sort.SliceStable(perDest[d], func(a, b int) bool { return perDest[d][a].fp < perDest[d][b].fp })
		}
		fps := make([]uint64, len(perDest[d]))
		for j, r := range perDest[d] {
			fps[j] = r.fp
		}
		if useGolomb {
			parts[d] = golomb.EncodeSorted(fps)
		} else {
			parts[d] = wire.AppendUintsFixed(nil, fps, width)
		}
	}
	recvd := g.Alltoallv(parts)

	counts := make(map[uint64]int)
	decoded := make([][]uint64, p)
	for src := 0; src < p; src++ {
		var err error
		if useGolomb {
			decoded[src], err = golomb.DecodeSorted(recvd[src])
		} else {
			decoded[src], err = wire.AppendDecodeUintsFixed(nil, recvd[src], width)
		}
		if err != nil {
			panic("dupdetect: corrupt fingerprint message: " + err.Error())
		}
		for _, fp := range decoded[src] {
			counts[fp]++
		}
	}

	replies := make([][]byte, p)
	for src := 0; src < p; src++ {
		bits := make([]bool, len(decoded[src]))
		for j, fp := range decoded[src] {
			bits[j] = counts[fp] == 1
		}
		replies[src] = wire.AppendBitset(nil, bits)
	}
	verdicts := g.Alltoallv(replies)

	unique := make(map[int32]bool)
	for d := 0; d < p; d++ {
		bits, err := wire.AppendDecodeBitset(nil, verdicts[d])
		if err != nil || len(bits) != len(perDest[d]) {
			panic("dupdetect: corrupt verdict message")
		}
		for j, r := range perDest[d] {
			if bits[j] {
				unique[r.cand] = true
			}
		}
	}
	return unique
}
