package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dss/internal/comm"
	"dss/internal/merge"
	"dss/internal/partition"
	"dss/internal/stats"
	"dss/internal/strutil"
	"dss/internal/wire"
)

// scatter distributes a global string set over p PEs round-robin.
func scatter(global [][]byte, p int) [][][]byte {
	locals := make([][][]byte, p)
	for i, s := range global {
		locals[i%p] = append(locals[i%p], s)
	}
	return locals
}

// fragment is one PE's sorted fragment as the tests read it: the arrays a
// collecting Output built from the items the sorter handed it.
type fragment struct {
	Strings [][]byte
	LCPs    []int32  // with an LCP column only
	Sats    []uint64 // with a satellite column only
	arena   []byte   // the copied strings' characters
	extents []Extent // what Open was given
}

// output returns an Output that collects the fragment into f, with the
// columns of format: LCPs with wire.RunLCP, satellites with wire.RunSats.
// The strings of stable runs are kept as they are; the others are copied
// back to back into one array exactly as long as the extents say they
// are. The columns are sized by the extents too.
func (f *fragment) output(format wire.RunFormat) *Output {
	lcp, sats := format&wire.RunLCP != 0, format&wire.RunSats != 0
	return &Output{Open: func(runs []Extent) (merge.Sink, error) {
		var n, chars int64
		for _, r := range runs {
			n += r.N
			if !r.Stable {
				chars += r.Chars
			}
		}
		if n > 0 {
			f.Strings = make([][]byte, 0, n)
			if lcp {
				f.LCPs = make([]int32, 0, n)
			}
			if sats {
				f.Sats = make([]uint64, 0, n)
			}
		}
		f.extents, f.arena = runs, make([]byte, 0, chars)
		return func(run int, s []byte, h int32, sat uint64) error {
			if !runs[run].Stable {
				if len(f.arena)+len(s) > cap(f.arena) {
					return fmt.Errorf("run %d holds more characters than its extent", run)
				}
				off := len(f.arena)
				f.arena = append(f.arena, s...)
				s = f.arena[off:len(f.arena):len(f.arena)]
			}
			f.Strings = append(f.Strings, s)
			if lcp {
				f.LCPs = append(f.LCPs, h)
			}
			if sats {
				f.Sats = append(f.Sats, sat)
			}
			return nil
		}, nil
	}}
}

// mergeSort, fkMerge, hQuick and pdms run a sorter into a collecting
// Output and return what it collected.
func mergeSort(c *comm.Comm, ss [][]byte, opt MSOptions) (f fragment) {
	opt.Out = f.output(wire.RunStrings)
	if opt.LCP {
		opt.Out = f.output(wire.RunLCP)
	}
	MergeSort(c, ss, opt)
	return f
}

func fkMerge(c *comm.Comm, ss [][]byte, opt FKOptions) (f fragment) {
	opt.Out = f.output(wire.RunStrings)
	FKMerge(c, ss, opt)
	return f
}

func hQuick(c *comm.Comm, ss [][]byte, opt HQOptions) (f fragment) {
	opt.Out = f.output(wire.RunLCP | wire.RunSats)
	HQuick(c, ss, opt)
	return f
}

func pdms(c *comm.Comm, ss [][]byte, opt PDMSOptions) (f fragment) {
	opt.Out = f.output(wire.RunLCP | wire.RunSats)
	PDMS(c, ss, opt)
	return f
}

// runDistributed executes one algorithm collectively and returns the
// per-PE fragments and the machine (for statistics).
func runDistributed(t *testing.T, locals [][][]byte, algo func(c *comm.Comm, ss [][]byte) fragment) ([]fragment, *comm.Machine) {
	t.Helper()
	p := len(locals)
	m := comm.New(p)
	results := make([]fragment, p)
	err := m.Run(func(c *comm.Comm) error {
		results[c.Rank()] = algo(c, locals[c.Rank()])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, m
}

// checkGlobalOrder verifies that the concatenation of the per-PE fragments
// is sorted, that per-PE LCP arrays (if present) are correct, and that the
// output is a permutation of the input (for full-string algorithms).
func checkGlobalOrder(t *testing.T, global [][]byte, results []fragment, wantPermutation bool) {
	t.Helper()
	var concat [][]byte
	for pe, res := range results {
		if !strutil.IsSorted(res.Strings) {
			t.Fatalf("PE %d fragment not locally sorted", pe)
		}
		if res.LCPs != nil {
			if i := strutil.ValidateLCPArray(res.Strings, res.LCPs); i >= 0 {
				t.Fatalf("PE %d: wrong LCP at %d", pe, i)
			}
		}
		concat = append(concat, res.Strings...)
	}
	if !strutil.IsSorted(concat) {
		t.Fatal("fragments not globally ordered across PEs")
	}
	if len(concat) != len(global) {
		t.Fatalf("output has %d strings, input had %d", len(concat), len(global))
	}
	if wantPermutation && strutil.MultisetHash(concat) != strutil.MultisetHash(global) {
		t.Fatal("output is not a permutation of the input")
	}
}

// reconstructPDMS maps (PE, index) origins back to the scattered input.
func reconstructPDMS(t *testing.T, locals [][][]byte, results []fragment) [][]byte {
	t.Helper()
	var out [][]byte
	for pe, res := range results {
		if len(res.Sats) != len(res.Strings) {
			t.Fatalf("PE %d: %d origins for %d strings", pe, len(res.Sats), len(res.Strings))
		}
		for i, u := range res.Sats {
			full := locals[u>>32][uint32(u)]
			if !bytes.HasPrefix(full, res.Strings[i]) {
				t.Fatalf("PE %d: output prefix %q is not a prefix of origin string %q",
					pe, res.Strings[i], full)
			}
			out = append(out, full)
		}
	}
	return out
}

// Workload generators for the integration tests.

func genRandom(rng *rand.Rand, n, maxLen, sigma int) [][]byte {
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

// genSmallD builds strings with long equal padding and short unique cores:
// D ≪ N, the PDMS sweet spot.
func genSmallD(n, length int) [][]byte {
	ss := make([][]byte, n)
	for i := range ss {
		s := bytes.Repeat([]byte{'a'}, length)
		copy(s[8:], []byte(fmt.Sprintf("%08d", i)))
		ss[i] = s
	}
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	return ss
}

var testPs = []int{1, 2, 3, 4, 7, 8}

func TestMergeSortAllConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	configs := map[string]MSOptions{
		"MS-simple": MSOptions{},
		"MS":        MSOptions{LCP: true},
	}
	for _, opt := range configs {
		for _, p := range testPs {
			global := genRandom(rng, 300+p*37, 16, 3)
			locals := scatter(global, p)
			o := opt
			o.GroupID = 1
			results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
				return mergeSort(c, ss, o)
			})
			// With LCP the collected LCP column is validated too.
			checkGlobalOrder(t, global, results, true)
		}
	}
}

func TestFKMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, p := range testPs {
		global := genRandom(rng, 400, 12, 4)
		locals := scatter(global, p)
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			return fkMerge(c, ss, FKOptions{GroupID: 1})
		})
		checkGlobalOrder(t, global, results, true)
	}
}

func TestFKMergeManyDuplicates(t *testing.T) {
	// The original FKmerge crashes on inputs with many repeated strings
	// (Section VII-D); ours must handle them.
	var global [][]byte
	for i := 0; i < 500; i++ {
		global = append(global, []byte("repeated-line"))
	}
	for i := 0; i < 100; i++ {
		global = append(global, []byte(fmt.Sprintf("unique-%03d", i)))
	}
	for _, p := range []int{2, 4, 8} {
		locals := scatter(global, p)
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			return fkMerge(c, ss, FKOptions{GroupID: 1})
		})
		checkGlobalOrder(t, global, results, true)
	}
}

func TestHQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, p := range testPs {
		global := genRandom(rng, 500, 14, 3)
		locals := scatter(global, p)
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			return hQuick(c, ss, HQOptions{GroupID: 1, Seed: 42, TrackPhases: true})
		})
		checkGlobalOrder(t, global, results, true)
	}
}

func TestHQuickNonPowerOfTwoLeavesHighRanksEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	global := genRandom(rng, 300, 10, 3)
	p := 7 // hypercube size 4
	locals := scatter(global, p)
	results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return hQuick(c, ss, HQOptions{GroupID: 1, Seed: 1})
	})
	checkGlobalOrder(t, global, results, true)
	for pe := 4; pe < 7; pe++ {
		if len(results[pe].Strings) != 0 {
			t.Fatalf("PE %d (outside hypercube) holds %d strings", pe, len(results[pe].Strings))
		}
	}
}

func TestHQuickAllEqualStrings(t *testing.T) {
	// Duplicate-only input: tie breaking by (PE, index) must keep the
	// recursion balanced and terminate.
	var global [][]byte
	for i := 0; i < 600; i++ {
		global = append(global, []byte("all-the-same"))
	}
	locals := scatter(global, 8)
	results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return hQuick(c, ss, HQOptions{GroupID: 1, Seed: 5})
	})
	checkGlobalOrder(t, global, results, true)
	// Tie-broken quicksort must not pile everything on one PE.
	maxFrag := 0
	for _, res := range results {
		if len(res.Strings) > maxFrag {
			maxFrag = len(res.Strings)
		}
	}
	if maxFrag > 400 {
		t.Fatalf("duplicate input unbalanced: max fragment %d of 600", maxFrag)
	}
}

func TestPDMSVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, golomb := range []bool{false, true} {
		for _, p := range testPs {
			global := genRandom(rng, 300+p*11, 20, 3)
			locals := scatter(global, p)
			opt := PDMSOptions{}
			opt.Golomb = golomb
			opt.GroupID = 1
			opt.Seed = 99
			results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
				return pdms(c, ss, opt)
			})
			// Prefix order must reproduce the true global order.
			full := reconstructPDMS(t, locals, results)
			if !strutil.IsSorted(full) {
				t.Fatalf("golomb=%v p=%d: reconstructed strings not sorted", golomb, p)
			}
			if strutil.MultisetHash(full) != strutil.MultisetHash(global) {
				t.Fatalf("golomb=%v p=%d: output not a permutation", golomb, p)
			}
			// Per-PE prefix fragments carry valid LCP arrays.
			for pe, res := range results {
				if i := strutil.ValidateLCPArray(res.Strings, res.LCPs); i >= 0 {
					t.Fatalf("p=%d PE %d: wrong prefix LCP at %d", p, pe, i)
				}
			}
		}
	}
}

func TestPDMSDuplicatesAndPrefixChains(t *testing.T) {
	var global [][]byte
	for i := 0; i < 50; i++ {
		global = append(global, []byte("dup-string"))
		global = append(global, bytes.Repeat([]byte("a"), i%13))
		global = append(global, []byte(fmt.Sprintf("key-%04d-suffix", i)))
	}
	for _, p := range []int{1, 3, 4} {
		locals := scatter(global, p)
		opt := PDMSOptions{}
		opt.GroupID = 1
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			return pdms(c, ss, opt)
		})
		full := reconstructPDMS(t, locals, results)
		if !strutil.IsSorted(full) {
			t.Fatalf("p=%d: not sorted", p)
		}
		if strutil.MultisetHash(full) != strutil.MultisetHash(global) {
			t.Fatalf("p=%d: not a permutation", p)
		}
	}
}

// TestPDMSExchangeBytesMatchLayout is the oracle of PDMS's Step-3 volume:
// the bytes every PE bills to the exchange phase must be exactly the runs
// its buckets make in the layout — per bucket a count, then per prefix its
// LCP with the bucket's previous prefix, its origin, its length past the
// LCP and those characters — and nothing else. Each (src, dst ≠ src) bucket
// is rebuilt from dst's output: the items whose origin names src, in output
// order, with LCPs recomputed between consecutive prefixes. An empty
// bucket costs its one-byte count. PDMS and PDMS-Golomb, p = 2…5, on
// inputs that leave buckets empty and on heavily duplicated ones.
func TestPDMSExchangeBytesMatchLayout(t *testing.T) {
	uvlen := func(v uint64) int64 { return int64(len(binary.AppendUvarint(nil, v))) }
	rng := rand.New(rand.NewSource(79))
	inputs := []struct {
		name   string
		global [][]byte
	}{
		{"three strings", [][]byte{[]byte("b"), []byte("a"), []byte("ab")}},
		{"one value", bytes.Split(bytes.Repeat([]byte("same\n"), 200), []byte("\n"))},
		{"few values", genRandom(rng, 600, 2, 2)},
		{"small D", genSmallD(400, 40)},
	}
	for _, in := range inputs {
		for _, golomb := range []bool{false, true} {
			for p := 2; p <= 5; p++ {
				locals := scatter(in.global, p)
				results, m := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
					return pdms(c, ss, PDMSOptions{Golomb: golomb, GroupID: 1, Seed: 5})
				})
				var want int64
				for dst, res := range results {
					for src := 0; src < p; src++ {
						if src == dst {
							continue
						}
						var prev []byte
						n := uint64(0)
						for i, s := range res.Strings {
							if res.Sats[i]>>32 != uint64(src) {
								continue
							}
							lcp := strutil.LCP(prev, s)
							if n == 0 {
								lcp = 0
							}
							want += uvlen(uint64(lcp)) + uvlen(res.Sats[i]) + uvlen(uint64(len(s)-lcp)) + int64(len(s)-lcp)
							prev = s
							n++
						}
						want += uvlen(n)
					}
				}
				var got int64
				for _, pe := range m.Report().PEs {
					got += pe.Phases[stats.PhaseExchange].BytesSent
				}
				if got != want {
					t.Errorf("%s golomb=%v p=%d: exchange billed %d bytes, the layout holds %d", in.name, golomb, p, got, want)
				}
			}
		}
	}
}

func TestPDMSCharSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	global := genRandom(rng, 600, 25, 2)
	locals := scatter(global, 4)
	opt := PDMSOptions{Sampling: partition.CharSampling, GroupID: 1}
	results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return pdms(c, ss, opt)
	})
	full := reconstructPDMS(t, locals, results)
	if !strutil.IsSorted(full) {
		t.Fatal("char-sampled PDMS output not sorted")
	}
}

// TestReconstructCollective fetches the strings behind PDMS fragments and
// behind origin columns built by hand: a rank with an empty fragment, a
// fragment whose origins all lie on one PE, and origins that name no
// string, which must fail the run with Reconstruct's error, not hang it.
func TestReconstructCollective(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	global := genRandom(rng, 200, 18, 3)
	p := 4
	locals := scatter(global, p)
	// reconstruct runs Reconstruct on every rank with its column of sats
	// and returns copies of the fetched strings.
	reconstruct := func(sats [][]uint64) ([][][]byte, error) {
		fulls := make([][][]byte, p)
		done := make(chan error, 1)
		go func() {
			done <- comm.New(p).Run(func(c *comm.Comm) error {
				return Reconstruct(c, sats[c.Rank()], locals[c.Rank()], 99, func(lines [][]byte) error {
					for _, s := range lines {
						fulls[c.Rank()] = append(fulls[c.Rank()], bytes.Clone(s))
					}
					return nil
				})
			})
		}()
		select {
		case err := <-done:
			return fulls, err
		case <-time.After(20 * time.Second):
			t.Fatal("Reconstruct hung")
			return nil, nil
		}
	}

	t.Run("pdms", func(t *testing.T) {
		m := comm.New(p)
		results := make([]fragment, p)
		err := m.Run(func(c *comm.Comm) error {
			opt := PDMSOptions{}
			opt.GroupID = 1
			results[c.Rank()] = pdms(c, locals[c.Rank()], opt)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sats := make([][]uint64, p)
		for pe := range sats {
			sats[pe] = results[pe].Sats
		}
		fulls, err := reconstruct(sats)
		if err != nil {
			t.Fatal(err)
		}
		var concat [][]byte
		for pe := 0; pe < p; pe++ {
			if len(fulls[pe]) != len(results[pe].Strings) {
				t.Fatalf("PE %d: reconstructed %d of %d", pe, len(fulls[pe]), len(results[pe].Strings))
			}
			for i, full := range fulls[pe] {
				if !bytes.HasPrefix(full, results[pe].Strings[i]) {
					t.Fatalf("PE %d: %q not a prefix of %q", pe, results[pe].Strings[i], full)
				}
			}
			concat = append(concat, fulls[pe]...)
		}
		if !strutil.IsSorted(concat) {
			t.Fatal("reconstructed output not sorted")
		}
		if strutil.MultisetHash(concat) != strutil.MultisetHash(global) {
			t.Fatal("reconstructed output not a permutation")
		}
	})

	// Columns built by hand: every string of the named PEs, interleaved,
	// so each fragment's answers come back from several PEs in turn.
	column := func(pes ...int) (sats []uint64) {
		for i := 0; ; i++ {
			n := len(sats)
			for _, pe := range pes {
				if i < len(locals[pe]) {
					sats = append(sats, originSat(pe, i))
				}
			}
			if len(sats) == n {
				return sats
			}
		}
	}
	for _, tc := range []struct {
		name string
		sats [][]uint64
		fail []string // the errors the first failing rank may return; none for a clean run
	}{
		{"empty fragment", [][]uint64{column(0, 1), nil, column(2, 3), column(3, 0)}, nil},
		{"origins on one PE", [][]uint64{column(3), column(3), column(0, 1, 2, 3), column(2)}, nil},
		{"index past its PE's input", [][]uint64{append(column(1), originSat(2, len(locals[2]))), column(2), nil, column(0)},
			[]string{"reconstruction query from PE 0: index 50 past the PE's 50 strings", "corrupt reconstruction answer from PE 2"}},
		{"PE past the machine", [][]uint64{column(0), {originSat(p, 0)}, column(1), nil}, []string{"origin names PE 4 of 4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fulls, err := reconstruct(tc.sats)
			if tc.fail != nil {
				if err == nil || !slices.ContainsFunc(tc.fail, func(f string) bool { return strings.Contains(err.Error(), f) }) {
					t.Fatalf("err = %v, want one containing one of %q", err, tc.fail)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for pe, sats := range tc.sats {
				if len(fulls[pe]) != len(sats) {
					t.Fatalf("PE %d: reconstructed %d of %d", pe, len(fulls[pe]), len(sats))
				}
				for i, u := range sats {
					if want := locals[u>>32][uint32(u)]; !bytes.Equal(fulls[pe][i], want) {
						t.Fatalf("PE %d, item %d: %q, want %q", pe, i, fulls[pe][i], want)
					}
				}
			}
		})
	}
}

func TestLCPCompressionReducesVolume(t *testing.T) {
	// High-LCP input: MS must send clearly fewer bytes than MS-simple.
	var global [][]byte
	prefix := bytes.Repeat([]byte("common"), 10)
	for i := 0; i < 2000; i++ {
		global = append(global, append(append([]byte{}, prefix...), []byte(fmt.Sprintf("%06d", i))...))
	}
	p := 8
	locals := scatter(global, p)
	_, mPlain := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	_, mLCP := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{LCP: true}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	vPlain := mPlain.Report().TotalBytesSent()
	vLCP := mLCP.Report().TotalBytesSent()
	if vLCP*2 > vPlain {
		t.Fatalf("LCP compression weak: MS=%d vs MS-simple=%d bytes", vLCP, vPlain)
	}
}

func TestPDMSSavesVolumeWhenDSmall(t *testing.T) {
	// D ≪ N: PDMS must send much less than MS.
	global := genSmallD(2000, 200)
	p := 8
	locals := scatter(global, p)
	_, mMS := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{LCP: true}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	_, mPD := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := PDMSOptions{}
		o.GroupID = 1
		return pdms(c, ss, o)
	})
	vMS := mMS.Report().TotalBytesSent()
	vPD := mPD.Report().TotalBytesSent()
	if vPD*3 > vMS {
		t.Fatalf("PDMS volume %d not ≪ MS volume %d on small-D input", vPD, vMS)
	}
}

func TestHQuickMovesMoreDataThanMergeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	global := genRandom(rng, 3000, 20, 4)
	p := 8
	locals := scatter(global, p)
	_, mHQ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return hQuick(c, ss, HQOptions{GroupID: 1, Seed: 3, TrackPhases: true})
	})
	_, mMS := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	if mHQ.Report().TotalBytesSent() <= mMS.Report().TotalBytesSent() {
		t.Fatalf("hQuick volume %d not above MS-simple volume %d",
			mHQ.Report().TotalBytesSent(), mMS.Report().TotalBytesSent())
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, p} {
			global := genRandom(rand.New(rand.NewSource(int64(n))), n, 5, 2)
			locals := scatter(global, p)
			algos := map[string]func(c *comm.Comm, ss [][]byte) fragment{
				"MS": func(c *comm.Comm, ss [][]byte) fragment {
					o := MSOptions{LCP: true}
					o.GroupID = 1
					return mergeSort(c, ss, o)
				},
				"FK": func(c *comm.Comm, ss [][]byte) fragment {
					return fkMerge(c, ss, FKOptions{GroupID: 1})
				},
				"HQ": func(c *comm.Comm, ss [][]byte) fragment {
					return hQuick(c, ss, HQOptions{GroupID: 1})
				},
			}
			for name, algo := range algos {
				results, _ := runDistributed(t, locals, algo)
				checkGlobalOrder(t, global, results, true)
				_ = name
			}
			// PDMS via reconstruction.
			opt := PDMSOptions{}
			opt.GroupID = 1
			results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
				return pdms(c, ss, opt)
			})
			full := reconstructPDMS(t, locals, results)
			if len(full) != n || !strutil.IsSorted(full) {
				t.Fatalf("p=%d n=%d: PDMS tiny input wrong", p, n)
			}
		}
	}
}

func TestAllAlgorithmsAgreeOnReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	global := genRandom(rng, 1200, 15, 3)
	ref := slices.Clone(global)
	sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })
	p := 4
	locals := scatter(global, p)

	collect := func(results []fragment) [][]byte {
		var out [][]byte
		for _, r := range results {
			out = append(out, r.Strings...)
		}
		return out
	}
	msRes, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{LCP: true}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	fkRes, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return fkMerge(c, ss, FKOptions{GroupID: 1})
	})
	hqRes, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		return hQuick(c, ss, HQOptions{GroupID: 1, Seed: 11})
	})
	for name, got := range map[string][][]byte{
		"MS": collect(msRes), "FK": collect(fkRes), "HQ": collect(hqRes),
	} {
		if len(got) != len(ref) {
			t.Fatalf("%s: %d strings, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(got[i], ref[i]) {
				t.Fatalf("%s: position %d: %q != %q", name, i, got[i], ref[i])
			}
		}
	}
}

func TestInputSlicesNotModified(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	global := genRandom(rng, 200, 10, 3)
	p := 4
	locals := scatter(global, p)
	snapshots := make([][][]byte, p)
	for pe := range locals {
		snapshots[pe] = append([][]byte{}, locals[pe]...)
	}
	runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{LCP: true}
		o.GroupID = 1
		return mergeSort(c, ss, o)
	})
	for pe := range locals {
		for i := range locals[pe] {
			if len(locals[pe][i]) > 0 && &locals[pe][i][0] != &snapshots[pe][i][0] {
				t.Fatalf("PE %d: input spine reordered", pe)
			}
			if !bytes.Equal(locals[pe][i], snapshots[pe][i]) {
				t.Fatalf("PE %d: input string %d mutated", pe, i)
			}
		}
	}
}
