package stringsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dss/internal/transport/tcp"
)

// sortOutputs flattens a Result's fragments for comparison.
func sortOutputs(res *Result) [][]byte {
	var all [][]byte
	for _, pe := range res.PEs {
		all = append(all, pe.Strings...)
	}
	return all
}

func equalOutputs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// deterministic zeroes the wall-clock measurement fields of a Stats so the
// remaining fields can be compared bit for bit: OverlapMS and WallMS are
// measured (they legitimately differ across transports and runs), while
// everything else is accounted and must be identical.
func deterministic(st Stats) Stats {
	st.OverlapMS = 0
	st.MaxOverlapMS = 0
	st.WallMS = 0
	st.WallTable = ""
	st.CPUMS = 0
	st.MergeWallMS = 0
	st.MergeCPUMS = 0
	return st
}

// TestTCPBackendMatchesLocal runs the same sort over the in-process mailbox
// substrate and over real loopback TCP sockets and requires byte-identical
// output and bit-identical statistics: byte accounting lives at the comm
// layer, so model-ms and bytes/str must not depend on the wire.
func TestTCPBackendMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	inputs := genInputs(rng, 4, 120)
	for _, algo := range []Algorithm{MS, HQuick, PDMSGolomb} {
		base := Config{Algorithm: algo, Seed: 11, Validate: true, Reconstruct: true}

		cfgLocal := base
		cfgLocal.Transport = TransportLocal
		resLocal, err := Sort(inputs, cfgLocal)
		if err != nil {
			t.Fatalf("%v local: %v", algo, err)
		}

		cfgTCP := base
		cfgTCP.Transport = TransportTCP
		resTCP, err := Sort(inputs, cfgTCP)
		if err != nil {
			t.Fatalf("%v tcp: %v", algo, err)
		}

		if !equalOutputs(sortOutputs(resLocal), sortOutputs(resTCP)) {
			t.Fatalf("%v: TCP output differs from local output", algo)
		}
		if deterministic(resLocal.Stats) != deterministic(resTCP.Stats) {
			t.Fatalf("%v: statistics differ across transports:\nlocal: %+v\ntcp:   %+v",
				algo, resLocal.Stats, resTCP.Stats)
		}
	}
}

// TestRunPEMatchesSort runs the SPMD entry point — one RunPE call per rank
// over a real TCP mesh, the exact shape cmd/dss-worker executes — and
// requires that the ranks' files, concatenated in rank order, hold exactly
// what SortToFile writes for the same input and seed, with bit-identical
// statistics on every rank: all six algorithms, in RAM and under a budget
// (where PDMS lines come from their origin ranks either way), with and
// without a trace; under the budget every algorithm but hQuick spills.
// Each rank's lines start at its file's offset and leave it at their end;
// two more cells start them after a header line, once in a regular file
// and once in a file opened for appending (written through the temporary
// file). No cell leaves anything in the spill directory.
func TestRunPEMatchesSort(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(405))
	inputs := genInputs(rng, p, 1000)
	const header, trailer = "header\n", "trailer\n"
	cell := func(t *testing.T, cfg Config, flag int, prefix string) {
		want, wantSt := toFile(t, inputs, cfg)
		want = want[len(header) : len(want)-len(trailer)]
		outs := openOuts(t, p, flag, prefix)
		sts, errs := runPEsOverTCP(t, inputs, cfg, outs)
		var got []byte
		for rank, f := range outs {
			if errs[rank] != nil {
				t.Fatalf("rank %d: %v", rank, errs[rank])
			}
			f.WriteString(trailer)
			b := readFile(t, f.Name())
			if !bytes.HasPrefix(b, []byte(prefix)) || !bytes.HasSuffix(b[len(prefix):], []byte(trailer)) {
				t.Fatalf("rank %d: lines not between %q and %q where the offset was left", rank, prefix, trailer)
			}
			got = append(got, b[len(prefix):len(b)-len(trailer)]...)
			if budgetInvariant(sts[rank]) != budgetInvariant(wantSt) {
				t.Fatalf("rank %d: SPMD statistics differ from SortToFile:\nsort:  %+v\nspmd:  %+v",
					rank, wantSt, sts[rank])
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the ranks' lines differ from SortToFile's (%d bytes, want %d)", len(got), len(want))
		}
		if cfg.MemBudget > 0 && cfg.Algorithm != HQuick && sts[0].SpillBytesWritten == 0 {
			t.Fatal("nothing spilled under the budget")
		}
		if cfg.Trace != "" {
			loadTrace(t, cfg.Trace)
		}
		assertEmptyDir(t, "RunPE", cfg.SpillDir)
	}
	config := func(t *testing.T, algo Algorithm, budget bool) Config {
		cfg := Config{Algorithm: algo, Seed: 23, Validate: true, SpillDir: t.TempDir()}
		if budget {
			cfg = budgetConfig(cfg, cfg.SpillDir)
		}
		return cfg
	}
	for _, algo := range Algorithms {
		for _, budget := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/budget=%v/trace=%v", algo, budget, traced), func(t *testing.T) {
					cfg := config(t, algo, budget)
					if traced {
						cfg.Trace = filepath.Join(t.TempDir(), "trace.json")
					}
					cell(t, cfg, 0, "")
				})
			}
		}
	}
	t.Run("PDMS/budget=true/offset", func(t *testing.T) { cell(t, config(t, PDMS, true), 0, header) })
	t.Run("MS/budget=false/append", func(t *testing.T) { cell(t, config(t, MS, false), os.O_APPEND, header) })
}

// TestRunPEReturnsPeerLossAsError closes rank 1's endpoint of a 2-rank
// loopback TCP fabric while rank 0's RunPE runs without it, under a
// budget: the failure panics inside the sort, and RunPE must return it as
// an error naming rank 1 — and leave nothing in the spill directory —
// instead of letting the panic kill the process.
func TestRunPEReturnsPeerLossAsError(t *testing.T) {
	f, err := tcp.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inputs := genInputs(rand.New(rand.NewSource(406)), 2, 200)
	dir := t.TempDir()
	out := openOuts(t, 1, 0, "")[0]
	done := make(chan error, 1)
	go func() {
		_, err := RunPE(f.Endpoint(0), inputs[0], budgetConfig(Config{Algorithm: MS, Seed: 3}, dir), out)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // most likely rank 0 waits first; either order must pass
	f.Endpoint(1).Close()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunPE did not return after its peer closed")
	}
	if err == nil || !strings.Contains(err.Error(), "PE 0") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("RunPE returned %v, want an error naming PE 0 and rank 1", err)
	}
	assertEmptyDir(t, "peer loss", dir)
}

// TestRunPERejectsMismatchedP pins the Config.P validation.
func TestRunPERejectsMismatchedP(t *testing.T) {
	f, err := tcp.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	outs := openOuts(t, 2, 0, "")
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = RunPE(f.Endpoint(rank), nil, Config{P: 5}, outs[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: mismatched P accepted", rank)
		}
	}
}

// TestParseTransport pins the canonical names.
func TestParseTransport(t *testing.T) {
	for _, tr := range Transports {
		got, err := ParseTransport(tr.String())
		if err != nil || got != tr {
			t.Fatalf("round-trip %v: got %v, err %v", tr, got, err)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if fmt.Sprint(TransportLocal, TransportTCP) != "local tcp" {
		t.Fatalf("canonical names changed: %v %v", TransportLocal, TransportTCP)
	}
}
