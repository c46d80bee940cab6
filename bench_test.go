// Package dss_test holds the repository-level model rung: the two metrics
// the paper plots, α-β model time (model-ms) and bytes sent per string
// (bytes/str), on the 54 cells of its Figures 4 and 5. Both are exact
// counts, so one iteration per cell gives them; scripts/bench.sh writes
// them to a BENCH_<date>.json snapshot, and TestBenchSnapshotModelInvariance
// replays the committed one. Wall clock is measured by benchmark/, at
// sizes where it is signal.
//
// Run with: go test -run '^$' -bench BenchmarkFig -benchtime 1x .
package dss_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dss/internal/input"
	"dss/stringsort"
)

const benchSeed = 1

// figureCell is one cell of Fig. 4 or 5: one algorithm on one distributed
// input. name is the cell's full benchmark name, the key of its snapshot
// row.
type figureCell struct {
	name   string
	inputs [][][]byte
	algo   stringsort.Algorithm
}

// figureCells is the one table of the 54 cells, in benchmark order:
//   - BenchmarkFig4: weak scaling, every algorithm at every D/N ratio on
//     8 PEs × 1000 strings of 100 characters;
//   - BenchmarkFig5CommonCrawl and BenchmarkFig5DNA: strong scaling,
//     16 000 strings on 8 and 16 PEs.
//
// The inputs are built once per test binary and shared by the cells that
// sort them.
var figureCells = sync.OnceValue(func() []figureCell {
	var cells []figureCell
	add := func(family, sub string, p int, gen func(pe, p int) [][]byte) {
		inputs := make([][][]byte, p)
		for pe := range inputs {
			inputs[pe] = gen(pe, p)
		}
		for _, algo := range stringsort.Algorithms {
			cells = append(cells, figureCell{family + "/" + sub + "/" + algo.String(), inputs, algo})
		}
	}
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		add("BenchmarkFig4", fmt.Sprintf("DN=%.2f", ratio), 8, func(pe, p int) [][]byte {
			return input.DN(input.DNConfig{
				StringsPerPE: 1000, Length: 100, Ratio: ratio, Seed: benchSeed,
			}, pe, p)
		})
	}
	const total = 16000
	for _, p := range []int{8, 16} {
		add("BenchmarkFig5CommonCrawl", fmt.Sprintf("p=%d", p), p, func(pe, p int) [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: total / p, Seed: benchSeed}, pe, p)
		})
	}
	for _, p := range []int{8, 16} {
		add("BenchmarkFig5DNA", fmt.Sprintf("p=%d", p), p, func(pe, p int) [][]byte {
			return input.DNAReads(input.DNAConfig{ReadsPerPE: total / p, Seed: benchSeed}, pe, p)
		})
	}
	return cells
})

func BenchmarkFig4(b *testing.B)            { benchFigure(b) }
func BenchmarkFig5CommonCrawl(b *testing.B) { benchFigure(b) }
func BenchmarkFig5DNA(b *testing.B)         { benchFigure(b) }

// benchFigure runs the table's cells of the calling benchmark's family,
// each as a sub-benchmark that reports model-ms and bytes/str.
func benchFigure(b *testing.B) {
	for _, c := range figureCells() {
		family, sub, _ := strings.Cut(c.name, "/")
		if family != b.Name() {
			continue
		}
		b.Run(sub, func(b *testing.B) {
			var st stringsort.Stats
			for b.Loop() {
				res, err := stringsort.Sort(c.inputs, stringsort.Config{Algorithm: c.algo, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			b.ReportMetric(st.ModelTime*1e3, "model-ms")
			b.ReportMetric(st.BytesPerString, "bytes/str")
		})
	}
}
