package stringsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

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
	st.Reconnects = 0
	st.ResentFrames = 0
	st.ResentBytes = 0
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
// requires fragment-identical output and bit-identical statistics compared
// to the in-process Sort of the same input and seed, under every decoration
// of the shared per-rank routine: MS, PDMS and PDMS-Golomb, in RAM (where PDMS
// origins resolve by lookup in Sort and by query in RunPE) and under a
// budget (run files compared byte for byte), with and without a trace.
func TestRunPEMatchesSort(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(405))
	inputs := genInputs(rng, p, 150)
	for _, algo := range []Algorithm{PDMS, PDMSGolomb, MS} {
		for _, budget := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/budget=%v/trace=%v", algo, budget, traced), func(t *testing.T) {
					cfg := Config{Algorithm: algo, Seed: 23, Validate: true, Reconstruct: true}
					if budget {
						cfg = budgetConfig(cfg, t.TempDir())
					}
					if traced {
						cfg.Trace = filepath.Join(t.TempDir(), "trace.json")
					}
					want, err := Sort(inputs, cfg)
					if err != nil {
						t.Fatalf("in-process sort: %v", err)
					}
					runs := runPEOverTCP(t, inputs, cfg)
					for rank := 0; rank < p; rank++ {
						if budget {
							if !sameFile(t, want.PEs[rank].RunFile, runs[rank].Output.RunFile) {
								t.Fatalf("rank %d: SPMD run file differs from Sort run file", rank)
							}
							os.RemoveAll(runDirOf(runs[rank].Output.RunFile))
						} else if !equalOutputs(want.PEs[rank].Strings, runs[rank].Output.Strings) {
							t.Fatalf("rank %d: SPMD fragment differs from Sort fragment", rank)
						}
						if budgetInvariant(runs[rank].Stats) != budgetInvariant(want.Stats) {
							t.Fatalf("rank %d: SPMD statistics differ from Sort:\nsort:  %+v\nspmd:  %+v",
								rank, want.Stats, runs[rank].Stats)
						}
					}
					if budget {
						os.RemoveAll(runDirOf(want.PEs[0].RunFile))
					}
					if traced {
						loadTrace(t, cfg.Trace)
					}
				})
			}
		}
	}
}

// sameFile reports whether two files hold the same bytes.
func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
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
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = RunPE(f.Endpoint(rank), nil, Config{P: 5})
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
