package merge

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/par"
)

func sliceSources(seqs []Sequence) []Source {
	out := make([]Source, len(seqs))
	for i := range seqs {
		out[i] = &sliceSource{seq: seqs[i]}
	}
	return out
}

// collectSink returns a sink that copies every item into got, with the
// LCP and satellite columns the reference merge would produce.
func collectSink(got *Sequence, lcp, sats bool) Sink {
	return func(s []byte, l int32, sat uint64) error {
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
// the pool merge at widths 1, 2 and 4 and MergeLCP must agree item for
// item — strings, LCPs, satellites — and on the character-work counter the
// model time is billed from, across run counts (including non-power-of-two
// tree paddings and empty runs), LCP and plain modes, and satellite
// carriage. This is what licenses the budgeted pipeline to swap the
// accumulating merge for the sink drain without touching model stats.
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

		want, wantWork, _ := Merge(nil, seqs, Options{LCP: useLCP})
		if useLCP {
			got, work := MergeLCP(seqs)
			requireEqualMerge(t, label+" MergeLCP", want, got, wantWork, work)
		}
		for _, width := range []int{1, 2, 4} {
			got, work, _ := Merge(par.New(width), seqs, Options{LCP: useLCP, ParMin: 1})
			requireEqualMerge(t, fmt.Sprintf("%s width=%d", label, width), want, got, wantWork, work)
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
		func(s []byte, lcp int32, sat uint64) error {
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
		func(s []byte, lcp int32, sat uint64) error { calls++; return nil })
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
