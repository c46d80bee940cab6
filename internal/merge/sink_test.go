package merge

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// genSeqs builds k sorted runs with LCP arrays (and optional satellites)
// from a shared small alphabet, so equal strings and deep shared prefixes
// are common.
func genSeqs(rng *rand.Rand, k, maxLen int, sats bool) []Sequence {
	vocab := []string{"", "a", "ab", "abc", "abcd", "ax", "b", "ba", "bab", "c", "ca", "cab"}
	seqs := make([]Sequence, k)
	for q := 0; q < k; q++ {
		n := rng.Intn(maxLen + 1)
		strs := make([][]byte, n)
		for i := range strs {
			strs[i] = []byte(vocab[rng.Intn(len(vocab))])
		}
		sortRun(strs)
		seqs[q] = seqFromStrings(strs, sats, uint64(q))
	}
	return seqs
}

func sortRun(strs [][]byte) {
	for i := 1; i < len(strs); i++ {
		for j := i; j > 0 && bytes.Compare(strs[j], strs[j-1]) < 0; j-- {
			strs[j], strs[j-1] = strs[j-1], strs[j]
		}
	}
}

func seqFromStrings(strs [][]byte, sats bool, tag uint64) Sequence {
	s := Sequence{Strings: strs, LCPs: make([]int32, len(strs))}
	for i := 1; i < len(strs); i++ {
		l := 0
		for l < len(strs[i-1]) && l < len(strs[i]) && strs[i-1][l] == strs[i][l] {
			l++
		}
		s.LCPs[i] = int32(l)
	}
	if sats {
		s.Sats = make([]uint64, len(strs))
		for i := range s.Sats {
			s.Sats[i] = tag<<32 | uint64(i)
		}
	}
	return s
}

func requireEqualMerge(t *testing.T, label string, want, got Sequence, wantWork, gotWork int64) {
	t.Helper()
	if len(got.Strings) != len(want.Strings) {
		t.Fatalf("%s: %d strings, want %d", label, len(got.Strings), len(want.Strings))
	}
	for i := range want.Strings {
		if !bytes.Equal(got.Strings[i], want.Strings[i]) {
			t.Fatalf("%s: string %d = %q, want %q", label, i, got.Strings[i], want.Strings[i])
		}
	}
	if (got.LCPs == nil) != (want.LCPs == nil) || len(got.LCPs) != len(want.LCPs) {
		t.Fatalf("%s: LCP shape mismatch: got %d (nil=%v) want %d (nil=%v)",
			label, len(got.LCPs), got.LCPs == nil, len(want.LCPs), want.LCPs == nil)
	}
	for i := range want.LCPs {
		if got.LCPs[i] != want.LCPs[i] {
			t.Fatalf("%s: LCP %d = %d, want %d", label, i, got.LCPs[i], want.LCPs[i])
		}
	}
	if (got.Sats == nil) != (want.Sats == nil) || len(got.Sats) != len(want.Sats) {
		t.Fatalf("%s: satellite shape mismatch", label)
	}
	for i := range want.Sats {
		if got.Sats[i] != want.Sats[i] {
			t.Fatalf("%s: satellite %d = %d, want %d", label, i, got.Sats[i], want.Sats[i])
		}
	}
	if gotWork != wantWork {
		t.Fatalf("%s: work = %d, want %d", label, gotWork, wantWork)
	}
}

func sliceSources(seqs []Sequence) []Source {
	out := make([]Source, len(seqs))
	for i := range seqs {
		out[i] = seqs[i].Source()
	}
	return out
}

// collectSink returns a sink that copies every item into got, with the
// LCP and satellite columns the reference merge would produce. With
// satellites, whose high word the generators set to the run index, it also
// checks the run index the tree reports.
func collectSink(got *Sequence, lcp, sats bool) Sink {
	return func(run int, s []byte, l int32, sat uint64) error {
		if sats && sat>>32 != uint64(run) {
			return fmt.Errorf("item %q with satellite %#x reported from run %d", s, sat, run)
		}
		got.Strings = append(got.Strings, append([]byte(nil), s...))
		if lcp {
			got.LCPs = append(got.LCPs, l)
		}
		if sats {
			got.Sats = append(got.Sats, sat)
		}
		return nil
	}
}

// TestMergeSinkMatchesMerge is the one-tree differential: the sink merge,
// Merge and MergeLCP must agree item for item — strings, LCPs, satellites
// — and on the character-work counter the model time is billed from,
// across run counts (including non-power-of-two tree paddings and empty
// runs), LCP and plain modes, and satellite carriage.
func TestMergeSinkMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(9)
		useLCP := trial%2 == 0
		sats := trial%3 == 0
		seqs := genSeqs(rng, k, 40, sats)
		if k > 2 {
			seqs[rng.Intn(k)] = seqFromStrings(nil, sats, 0) // an empty run
		}
		label := fmt.Sprintf("trial=%d k=%d lcp=%v sats=%v", trial, k, useLCP, sats)

		want, wantWork := Merge(seqs, useLCP)
		if useLCP {
			got, work := MergeLCP(seqs)
			requireEqualMerge(t, label+" MergeLCP", want, got, wantWork, work)
		}

		var got Sequence
		n, work, err := MergeSink(sliceSources(seqs), useLCP, collectSink(&got, useLCP, sats))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n != int64(len(want.Strings)) {
			t.Fatalf("%s: sink saw %d items, want %d", label, n, len(want.Strings))
		}
		requireEqualMerge(t, label+" sink", want, got, wantWork, work)
	}
}

// TestMergeSinkErrorAborts pins the abort contract: a sink error stops the
// merge immediately and is returned verbatim, with n reflecting only the
// items successfully sunk.
func TestMergeSinkErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := genSeqs(rng, 4, 30, false)
	total := 0
	for _, s := range seqs {
		total += s.Len()
	}
	if total < 8 {
		t.Fatal("instance too small for the abort test")
	}
	boom := errors.New("sink full")
	calls := 0
	n, _, err := MergeSink(sliceSources(seqs), true,
		func(int, []byte, int32, uint64) error {
			calls++
			if calls == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got err %v, want the sink error", err)
	}
	if calls != 5 || n != 4 {
		t.Fatalf("sink called %d times with n=%d, want 5 calls and n=4", calls, n)
	}
}

// TestMergeSinkEmpty covers the empty edge: an all-empty merge never
// invokes the sink and bills nothing.
func TestMergeSinkEmpty(t *testing.T) {
	calls := 0
	n, work, err := MergeSink(sliceSources([]Sequence{{}, {}, {}}), false,
		func(int, []byte, int32, uint64) error { calls++; return nil })
	if err != nil || n != 0 || work != 0 || calls != 0 {
		t.Fatalf("empty merge: n=%d work=%d calls=%d err=%v, want all zero", n, work, calls, err)
	}
}

// recyclingSource simulates core's budgeted run sources: every string
// lives in its own buffer, and being pulled PAST a string scribbles over
// its storage — the strictest reading of the Source aliasing contract (a
// string is valid until the next Next on its source, not a moment longer).
type recyclingSource struct {
	seq  Sequence
	pos  int
	prev []byte
}

func (r *recyclingSource) Next() ([]byte, int32, uint64, bool) {
	for i := range r.prev {
		r.prev[i] = 0xee
	}
	if r.pos >= r.seq.Len() {
		return nil, 0, 0, false
	}
	i := r.pos
	r.pos++
	r.prev = append([]byte{}, r.seq.Strings[i]...)
	return r.prev, r.seq.LCPs[i], 0, true
}

// TestMergeSinkAliasingContract enforces the consuming half of the Source
// contract: the tree hands a head to the sink before it pulls its source
// again and never looks at a string it has pulled past, so sources that
// recycle consumed storage — as core's spill sources do — still merge to
// the reference output with the reference work.
func TestMergeSinkAliasingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seqs := genSeqs(rng, 5, 60, false)
	want, wantWork := MergeLCP(seqs)
	srcs := make([]Source, len(seqs))
	for i, s := range seqs {
		srcs[i] = &recyclingSource{seq: s}
	}
	var got Sequence
	_, work, err := MergeSink(srcs, true, collectSink(&got, true, false))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualMerge(t, "recycling sources", want, got, wantWork, work)
}

// FuzzMergeMatchesStableSort feeds arbitrary byte soup, sliced into up to
// nine sorted runs with satellites, through Merge and the sink merge, with
// and without the LCP tree, and requires the strings, LCPs and satellites
// of a stable sort of the runs' concatenation (equal strings keep run
// order) and the same work from both merges.
func FuzzMergeMatchesStableSort(f *testing.F) {
	f.Add([]byte("ab\x00abc\x01b\x02"), uint8(3))
	f.Add([]byte("\x00\x00\x01aaaa\x02aaab"), uint8(5))
	f.Add([]byte("x"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := 1 + int(kRaw)%9
		// Deterministically slice data into k sorted runs.
		runs := make([][][]byte, k)
		for i, b := range data {
			q := int(b+byte(i)) % k
			runs[q] = append(runs[q], data[i:i+min(len(data)-i, 1+int(b)%7)])
		}
		seqs := make([]Sequence, k)
		var all Sequence
		for q := range runs {
			sortRun(runs[q])
			seqs[q] = seqFromStrings(runs[q], true, uint64(q))
			all.Strings = append(all.Strings, seqs[q].Strings...)
			all.Sats = append(all.Sats, seqs[q].Sats...)
		}
		idx := make([]int, len(all.Strings))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(all.Strings[idx[a]], all.Strings[idx[b]]) < 0 })
		var sorted [][]byte
		var sats []uint64
		for _, i := range idx {
			sorted = append(sorted, all.Strings[i])
			sats = append(sats, all.Sats[i])
		}
		for _, useLCP := range []bool{false, true} {
			want := Sequence{Strings: sorted, Sats: sats}
			if useLCP {
				want.LCPs = seqFromStrings(sorted, false, 0).LCPs
			}
			got, work := Merge(seqs, useLCP)
			if len(sorted) == 0 {
				want = Sequence{}
			}
			requireEqualMerge(t, fmt.Sprintf("Merge lcp=%v", useLCP), want, got, work, work)
			var sunk Sequence
			_, sinkWork, err := MergeSink(sliceSources(seqs), useLCP, collectSink(&sunk, useLCP, true))
			if err != nil {
				t.Fatal(err)
			}
			requireEqualMerge(t, fmt.Sprintf("sink lcp=%v", useLCP), want, sunk, work, sinkWork)
		}
	})
}

// TestSequenceThroughOrder is the differential of a run read through an
// order against its gathered form: the same Source items (strings, LCPs,
// satellites, an empty non-nil string for a nil one) and the same merge,
// item for item and in billed work. Each run's strings are scattered over
// an unsorted array, as a PE's own bucket lies in the caller's input.
func TestSequenceThroughOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(6)
		useLCP, sats := trial%2 == 0, trial%3 == 0
		gathered := genSeqs(rng, k, 40, sats)
		ordered := make([]Sequence, k)
		for q, g := range gathered {
			for i, s := range g.Strings {
				if len(s) == 0 && rng.Intn(2) == 0 {
					g.Strings[i] = nil
				}
			}
			// Scatter the run over a larger array: position perm[i] holds
			// string i, so the order's i-th entry is perm[i].
			pool := make([][]byte, g.Len()+rng.Intn(5))
			for i := range pool {
				pool[i] = []byte("filler")
			}
			perm := rng.Perm(len(pool))[:g.Len()]
			order := make([]uint32, g.Len())
			for i, s := range g.Strings {
				pool[perm[i]] = s
				order[i] = uint32(perm[i])
			}
			ordered[q] = Sequence{Strings: pool, Order: order, LCPs: g.LCPs, Sats: g.Sats}
			if ordered[q].Len() != g.Len() {
				t.Fatalf("trial %d run %d: Len %d, gathered %d", trial, q, ordered[q].Len(), g.Len())
			}
		}
		label := fmt.Sprintf("trial=%d k=%d lcp=%v sats=%v", trial, k, useLCP, sats)

		for q := range gathered {
			want, got := gathered[q].Source(), ordered[q].Source()
			for i := 0; ; i++ {
				ws, wl, wsat, wok := want.Next()
				gs, gl, gsat, gok := got.Next()
				if wok != gok || !bytes.Equal(ws, gs) || (gs == nil) != (ws == nil) || wl != gl || wsat != gsat {
					t.Fatalf("%s run %d item %d: got (%q %d %d %v), gathered (%q %d %d %v)",
						label, q, i, gs, gl, gsat, gok, ws, wl, wsat, wok)
				}
				if !wok {
					break
				}
			}
		}

		want, wantWork := Merge(gathered, useLCP)
		got, gotWork := Merge(ordered, useLCP)
		requireEqualMerge(t, label, want, got, wantWork, gotWork)
	}
}
