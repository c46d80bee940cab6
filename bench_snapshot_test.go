// Snapshot regression: the committed BENCH_<date>.json records the paper's
// two metrics, model_ms and bytes_per_str, for every cell of figureCells.
// They must not drift unless a change deliberately alters the algorithms'
// communication behavior, and in particular must be invariant under every
// wire codec, pool width, memory budget and trace: all of those act below
// the accounting boundary, so the paper's numbers cannot move.
package dss_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dss/stringsort"
)

// benchSnapshot is the snapshot this tree's figures are pinned against
// (written by scripts/bench.sh).
const benchSnapshot = "BENCH_2026-10-20.json"

type snapshotFile struct {
	Results []snapshotRow `json:"results"`
}

type snapshotRow struct {
	Name        string  `json:"name"`
	ModelMS     float64 `json:"model_ms"`
	BytesPerStr float64 `json:"bytes_per_str"`
}

// benchRound rounds x exactly as the testing package prints benchmark
// metrics (and therefore exactly as the numbers entered the snapshot):
// four significant figures for small values, whole numbers from 1000 up.
func benchRound(x float64) float64 {
	var prec int
	switch y := math.Abs(x); {
	case y == 0 || y >= 999.95:
		prec = 0
	case y >= 99.995:
		prec = 1
	case y >= 9.9995:
		prec = 2
	case y >= 0.99995:
		prec = 3
	case y >= 0.099995:
		prec = 4
	case y >= 0.0099995:
		prec = 5
	case y >= 0.00099995:
		prec = 6
	default:
		prec = 7
	}
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', prec, 64), 64)
	return v
}

// TestBenchSnapshotModelInvariance replays every cell of figureCells
// against its row of the committed snapshot under every wire codec, at
// intra-PE pool width 4, under a 32 KiB out-of-core memory budget AND with
// the trace recorder enabled, and requires the deterministic model metrics
// — model-ms and bytes/str, rounded at the snapshot's print precision — to
// match bit-for-bit: neither the codec layer, nor the parallel work pool, nor
// the memory budget spilling runs to disk may be visible to the paper's
// accounting. On the Fig4 cells it additionally requires the compressing
// codecs to put strictly fewer bytes per string on the wire than the raw
// model volume (the codec subsystem's reason to exist). The table and the
// snapshot must name the same cells: a cell without a row, or a row
// without a cell, fails the test.
func TestBenchSnapshotModelInvariance(t *testing.T) {
	raw, err := os.ReadFile(benchSnapshot)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("parse %s: %v", benchSnapshot, err)
	}
	if len(snap.Results) != 54 {
		t.Fatalf("snapshot has %d Fig4/Fig5 cells, want 54", len(snap.Results))
	}
	rows := make(map[string]snapshotRow, len(snap.Results))
	for _, row := range snap.Results {
		rows[row.Name] = row
	}
	cells := figureCells()
	inTable := make(map[string]bool, len(cells))
	for _, c := range cells {
		inTable[c.name] = true
		if _, ok := rows[c.name]; !ok {
			t.Errorf("cell %s has no snapshot row", c.name)
		}
	}
	for _, row := range snap.Results {
		if !inTable[row.Name] {
			t.Errorf("snapshot row %s names no cell of the table", row.Name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	matched := 0
	var spilled int64
	for _, c := range cells {
		row, inputs, algo := rows[c.name], c.inputs, c.algo
		for _, mode := range []struct {
			label  string
			codec  string
			cores  int
			budget int64
			trace  bool
		}{
			{"codec=none", "none", 0, 0, false},
			{"codec=flate", "flate", 0, 0, false},
			{"codec=lcp", "lcp", 0, 0, false},
			{"cores=4", "none", 4, 0, false},
			{"mem-budget=32k", "none", 0, 32 << 10, false},
			// Tracing on: the recorder hooks in every layer must be invisible
			// to the paper's accounting — same bit-identity bar as the codecs.
			{"trace=on", "none", 0, 0, true},
		} {
			var tracePath string
			if mode.trace {
				tracePath = filepath.Join(t.TempDir(), "trace.json")
			}
			res, err := stringsort.Sort(inputs, stringsort.Config{
				Algorithm: algo, Seed: benchSeed, Codec: mode.codec,
				Cores:     mode.cores,
				MemBudget: mode.budget, SpillDir: t.TempDir(),
				Trace: tracePath,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", row.Name, mode.label, err)
			}
			if mode.trace {
				if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
					t.Errorf("%s %s: no trace file written (%v)", row.Name, mode.label, err)
				}
			}
			if mode.budget > 0 {
				spilled += res.Stats.SpillBytesWritten
				if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
					os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))
				}
			}
			st := res.Stats
			if got := benchRound(st.ModelTime * 1e3); got != row.ModelMS {
				t.Errorf("%s %s: model-ms %v, snapshot %v", row.Name, mode.label, got, row.ModelMS)
			}
			if got := benchRound(st.BytesPerString); got != row.BytesPerStr {
				t.Errorf("%s %s: bytes/str %v, snapshot %v", row.Name, mode.label, got, row.BytesPerStr)
			}
			if strings.HasPrefix(row.Name, "BenchmarkFig4") && mode.codec != "none" {
				if st.WireBytesPerString >= st.BytesPerString {
					t.Errorf("%s %s: wire bytes/str %.2f not strictly below raw %.2f",
						row.Name, mode.label, st.WireBytesPerString, st.BytesPerString)
				}
			}
		}
		if !t.Failed() {
			matched++
		}
	}
	if spilled == 0 {
		t.Errorf("the 32 KiB budget mode never wrote a spill byte: the out-of-core path did not engage")
	}
	t.Logf("%d/%d snapshot cells bit-identical under all codecs, cores=4, a 32 KiB budget and tracing (%d spill bytes)", matched, len(snap.Results), spilled)
}
