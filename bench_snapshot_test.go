// Snapshot regression: the committed BENCH_<date>.json files record the
// paper-figure metrics PR over PR. The deterministic columns — model_ms
// and bytes_per_str — must not drift unless a PR deliberately changes the
// algorithms' communication behavior, and in particular must be invariant
// under every wire codec: compression happens below the accounting
// boundary, so the paper's numbers cannot move.
package dss_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dss/internal/input"
	"dss/stringsort"
)

// benchSnapshot is the snapshot this tree's figures are pinned against
// (written by scripts/bench.sh at the previous PR).
const benchSnapshot = "BENCH_2026-10-03.json"

type snapshotFile struct {
	Results []struct {
		Name        string  `json:"name"`
		ModelMS     float64 `json:"model_ms"`
		BytesPerStr float64 `json:"bytes_per_str"`
	} `json:"results"`
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

// snapshotInputs rebuilds the workload of one Fig4/Fig5 benchmark from its
// snapshot name, mirroring the constants in bench_test.go.
func snapshotInputs(name string) (inputs [][][]byte, algo stringsort.Algorithm, err error) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 {
		return nil, 0, fmt.Errorf("unrecognized benchmark name %q", name)
	}
	algo, err = stringsort.ParseAlgorithm(parts[2])
	if err != nil {
		return nil, 0, err
	}
	switch parts[0] {
	case "BenchmarkFig4":
		const p, nPerPE, length = 8, 1000, 100
		ratio, perr := strconv.ParseFloat(strings.TrimPrefix(parts[1], "DN="), 64)
		if perr != nil {
			return nil, 0, perr
		}
		inputs = make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			inputs[pe] = input.DN(input.DNConfig{
				StringsPerPE: nPerPE, Length: length, Ratio: ratio, Seed: benchSeed,
			}, pe, p)
		}
	case "BenchmarkFig5CommonCrawl", "BenchmarkFig5DNA":
		const total = 16000
		p, perr := strconv.Atoi(strings.TrimPrefix(parts[1], "p="))
		if perr != nil {
			return nil, 0, perr
		}
		inputs = make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			if parts[0] == "BenchmarkFig5CommonCrawl" {
				inputs[pe] = input.CommonCrawlLike(input.CCConfig{
					LinesPerPE: total / p, Seed: benchSeed,
				}, pe, p)
			} else {
				inputs[pe] = input.DNAReads(input.DNAConfig{
					ReadsPerPE: total / p, Seed: benchSeed,
				}, pe, p)
			}
		}
	default:
		return nil, 0, fmt.Errorf("unrecognized benchmark family %q", parts[0])
	}
	return inputs, algo, nil
}

// TestBenchSnapshotModelInvariance replays every Fig4/Fig5 cell of the
// committed snapshot under every wire codec, at intra-PE pool width 4,
// under a 32 KiB out-of-core memory budget AND with the trace recorder
// enabled, and requires the deterministic model metrics — model-ms and
// bytes/str, rounded at the snapshot's print precision — to match
// bit-for-bit: neither the codec layer, nor the parallel work pool, nor
// the memory budget spilling runs to disk may be visible to the paper's
// accounting. On the Fig4 cells it additionally requires the compressing
// codecs to put strictly fewer bytes per string on the wire than the raw
// model volume (the codec subsystem's reason to exist).
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
	matched := 0
	var spilled int64
	for _, row := range snap.Results {
		inputs, algo, err := snapshotInputs(row.Name)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
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
