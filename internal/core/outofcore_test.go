package core

import (
	"bytes"
	"fmt"
	"testing"

	"dss/internal/comm"
	"dss/internal/spill"
	"dss/internal/wire"
)

// TestSpillRoutesOversizeFragmentByPage is the regression test of the
// budget overshoot: the PE's own bucket reaches the budget seam as ONE
// fragment of the whole bucket, and routing it in one piece either fed a
// reader far past the budget or queued one bucket-sized "page" behind the
// meter until its write landed. A fragment of 16 pages must be decided and
// spilled page by page — the metered peak stays within budget + 2 pages
// (one of arena overshoot, one being written; the write-behind depth is
// the worker pool's width, sequential here) whether the pool starts empty
// (the run is resident up to the budget, then spilled) or full with every
// byte forced to the page file (the composite-bucket route) — and the run
// must read back intact.
func TestSpillRoutesOversizeFragmentByPage(t *testing.T) {
	const budget, page, pages = 4096, 512, 16
	var ss [][]byte
	for i := 0; len(ss)*21 < pages*page; i++ {
		ss = append(ss, []byte(fmt.Sprintf("%020d", i)))
	}
	msg := wire.EncodeStrings(ss)
	for _, force := range []bool{false, true} {
		pool, err := spill.NewPool(spill.Config{Budget: budget, PageSize: page, Dir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		if got := spillFrameBound(pool); got != page {
			t.Fatalf("frame bound %d at a %d-byte page, want the page", got, page)
		}
		if force {
			pool.Reserve(budget) // nothing left: every page in flight is overshoot
		}
		run := &spillRun{r: wire.NewRunReader(wire.RunStrings)}
		st := &spillStream{pool: pool, runs: []*spillRun{run}, force: force}
		st.route(0, msg, true)
		if run.file == nil {
			t.Fatalf("force=%v: a %d-byte fragment stayed resident under a %d-byte budget", force, len(msg), budget)
		}
		src := &spillSource{st: st, run: run}
		for i, want := range ss {
			if s, _, _, ok := src.Next(); !ok || !bytes.Equal(s, want) {
				t.Fatalf("force=%v: string %d read back as %q (ok=%v), want %q", force, i, s, ok, want)
			}
		}
		if _, _, _, ok := src.Next(); ok {
			t.Fatalf("force=%v: run yields more strings than were routed", force)
		}
		if peak := pool.Peak(); peak > budget+2*page {
			t.Fatalf("force=%v: peak %d exceeds budget %d + 2 pages of %d: the fragment was not routed page by page",
				force, peak, budget, page)
		}
	}

	// At production page sizes the comm default bounds the frame.
	pool, err := spill.NewPool(spill.Config{Budget: 8 << 20, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := spillFrameBound(pool); got != comm.DefaultStreamChunk || pool.PageSize() <= got {
		t.Fatalf("frame bound %d at a %d-byte page, want %d", got, pool.PageSize(), comm.DefaultStreamChunk)
	}
}
