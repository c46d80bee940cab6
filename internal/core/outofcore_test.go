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
// budget overshoot: every bucket — the PE's own and, since the exchange
// hands them over whole, every remote one — reaches the budgeted landing as
// ONE piece of the whole bucket, and routing it in one piece either fed a
// reader far past the budget or queued one bucket-sized "page" behind the
// meter until its write landed. A bucket of 16 pages must be decided and
// spilled piece by piece — the metered peak stays within budget + 2 pages
// (one of arena overshoot, one being written; the write-behind depth is
// the worker pool's width, sequential here) whether the pool starts empty
// (the run is resident up to the budget, then spilled) or full with every
// byte forced to the page file (the composite-bucket route) — and the run
// must read back intact. The self case calls route as such; the remote
// case goes through routeRuns, the entry point exchangeMerge hands the
// exchange's receive side to, with the bucket arriving second of two.
func TestSpillRoutesOversizeFragmentByPage(t *testing.T) {
	const budget, page, pages = 4096, 512, 16
	var ss [][]byte
	for i := 0; len(ss)*21 < pages*page; i++ {
		ss = append(ss, []byte(fmt.Sprintf("%020d", i)))
	}
	msg := wire.EncodeStrings(ss)
	for _, remote := range []bool{false, true} {
		for _, force := range []bool{false, true} {
			label := fmt.Sprintf("remote=%v force=%v", remote, force)
			pool, err := spill.NewPool(spill.Config{Budget: budget, PageSize: page, Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if force {
				pool.Reserve(budget) // nothing left: every page in flight is overshoot
			}
			var st *spillStream
			if remote {
				// Copies: routeRuns releases what it is handed.
				arrivals := [][]byte{wire.EncodeStrings(nil), append([]byte(nil), msg...)}
				next := 0
				recv := func() (int, []byte, bool) {
					if next == len(arrivals) {
						return -1, nil, false
					}
					next++
					return next - 1, arrivals[next-1], true
				}
				if err := comm.New(1).Run(func(c *comm.Comm) error {
					st = routeRuns(c, recv, len(arrivals), wire.RunStrings, force, pool)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			} else {
				st = &spillStream{pool: pool, runs: []*spillRun{{r: wire.NewRunReader(wire.RunStrings)}}, force: force}
				st.route(0, msg)
			}
			run := st.runs[len(st.runs)-1]
			if run.file == nil {
				t.Fatalf("%s: a %d-byte bucket stayed resident under a %d-byte budget", label, len(msg), budget)
			}
			src := &spillSource{st: st, run: run}
			for i, want := range ss {
				if s, _, _, ok := src.Next(); !ok || !bytes.Equal(s, want) {
					t.Fatalf("%s: string %d read back as %q (ok=%v), want %q", label, i, s, ok, want)
				}
			}
			if _, _, _, ok := src.Next(); ok {
				t.Fatalf("%s: run yields more strings than were routed", label)
			}
			if peak := pool.Peak(); peak > budget+2*page {
				t.Fatalf("%s: peak %d exceeds budget %d + 2 pages of %d: the bucket was not routed piece by piece",
					label, peak, budget, page)
			}
		}
	}
}
