// Package dss_test holds the repository-level benchmarks: one benchmark
// per figure of the paper's evaluation (Section VII) plus the ablations of
// DESIGN.md. Each benchmark runs a complete distributed sort on the
// corresponding workload and reports, alongside ns/op (harness wall time
// on this host), the two metrics the paper plots: the α-β model time in
// milliseconds and the communication volume in bytes per string.
//
// Run with: go test -bench=. -benchmem
package dss_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dss/internal/input"
	"dss/stringsort"
)

const benchSeed = 1

// benchCodec selects the wire codec every benchmark decorates its
// transport with (DSS_BENCH_CODEC=none|flate|lcp, default none). The
// model-ms and bytes/str columns are codec-invariant by construction —
// TestBenchSnapshotModelInvariance pins that against the committed
// snapshot — while wire-bytes/str and compression-x record what the
// selected codec put on the fabric.
var benchCodec = os.Getenv("DSS_BENCH_CODEC")

// benchCores sets the intra-PE work pool width for every benchmark
// (DSS_BENCH_CORES=N, default 0 = GOMAXPROCS). One more model-invariant
// axis: the cores and speedup-x columns record the pool's measured effect
// on wall clock while model-ms and bytes/str stay pinned by the snapshot
// test at every width.
var benchCores = func() int {
	n, _ := strconv.Atoi(os.Getenv("DSS_BENCH_CORES"))
	return n
}()

// benchMemBudget switches every benchmark to the bounded-memory
// out-of-core pipeline (DSS_BENCH_MEMBUDGET=64k|1m|..., default empty =
// unbounded in-RAM). The third model-invariant axis: model-ms and
// bytes/str stay pinned by the snapshot test under a budget too, while
// peak-mem-bytes and spill-bytes record what the budget actually cost.
var benchMemBudget = func() int64 {
	budget, err := stringsort.ParseMemBudget(os.Getenv("DSS_BENCH_MEMBUDGET"))
	if err != nil {
		panic(fmt.Sprintf("DSS_BENCH_MEMBUDGET: %v", err))
	}
	return budget
}()

func runBench(b *testing.B, inputs [][][]byte, cfg stringsort.Config) {
	b.Helper()
	if cfg.Codec == "" {
		cfg.Codec = benchCodec
	}
	if cfg.Cores == 0 {
		cfg.Cores = benchCores
	}
	if cfg.MemBudget == 0 && benchMemBudget > 0 {
		cfg.MemBudget = benchMemBudget
		cfg.SpillDir = b.TempDir()
	}
	var st stringsort.Stats
	for i := 0; i < b.N; i++ {
		res, err := stringsort.Sort(inputs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Stats
		if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
			// Budget mode: drop this iteration's sorted-run files before the
			// next fills the spill dir again.
			os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))
		}
	}
	b.ReportMetric(st.ModelTime*1e3, "model-ms")
	b.ReportMetric(st.BytesPerString, "bytes/str")
	// The wire-side channel: post-codec bytes per string and the ratio to
	// the raw model volume (both equal the raw figures / 1.0 without a
	// codec; deterministic for a fixed codec).
	b.ReportMetric(st.WireBytesPerString, "wire-bytes/str")
	b.ReportMetric(st.CompressionRatio, "compression-x")
	// Measured, not modeled: wall-clock comm time the split-phase Step-3
	// seam hid under Step-4 decoding (varies run to run, unlike the
	// deterministic metrics above).
	b.ReportMetric(st.OverlapMS, "overlap-ms")
	// The Step-4 merge channel: measured PE-summed CPU milliseconds spent
	// inside the merge phase. merge-cpu-ms exceeding the merge wall time
	// proves the partitioned merge itself ran in parallel (the two are ≈
	// equal on single-CPU hosts or below the par-merge threshold).
	b.ReportMetric(st.MergeCPUMS, "merge-cpu-ms")
	// The intra-PE pool channel: the pool width the run executed with and
	// the measured wall-clock speedups — whole sort and merge phase alone —
	// over the same configuration forced sequential (1.0 at width 1 by
	// definition; ≈1.0 on single-CPU hosts — the harness records GOMAXPROCS
	// alongside). Measured, like overlap-ms.
	overall, mergeUp := benchSpeedup(b, inputs, cfg, st)
	b.ReportMetric(float64(st.Cores), "cores")
	b.ReportMetric(overall, "speedup-x")
	b.ReportMetric(mergeUp, "merge-speedup-x")
	// The out-of-core channel: the bottleneck PE's peak metered live bytes
	// and the machine-wide spill traffic (writes + read-backs). Without a
	// budget, spill-bytes is 0 and peak-mem-bytes records the unbounded
	// footprint. Measured, like overlap-ms.
	b.ReportMetric(float64(st.PeakMemBytes), "peak-mem-bytes")
	b.ReportMetric(float64(st.SpillBytesWritten+st.SpillBytesRead), "spill-bytes")
}

// benchSpeedup measures the intra-PE pool's wall-clock speedup: the same
// sort forced to Cores=1 divided by the benchmarked run's wall time, for
// the whole sort and for the Step-4 merge phase alone (the partitioned
// merge's contribution, isolated). Only meaningful (and only paid for —
// one sequential rerun covers both ratios) when the run used a wider pool.
func benchSpeedup(b *testing.B, inputs [][][]byte, cfg stringsort.Config, st stringsort.Stats) (overall, merge float64) {
	b.Helper()
	overall, merge = 1.0, 1.0
	if st.Cores <= 1 || st.WallMS <= 0 {
		return overall, merge
	}
	seq := cfg
	seq.Cores = 1
	res, err := stringsort.Sort(inputs, seq)
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.WallMS > 0 {
		overall = res.Stats.WallMS / st.WallMS
	}
	if res.Stats.MergeWallMS > 0 && st.MergeWallMS > 0 {
		merge = res.Stats.MergeWallMS / st.MergeWallMS
	}
	return overall, merge
}

func dnInputs(p, nPerPE, length int, ratio float64) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.DN(input.DNConfig{
			StringsPerPE: nPerPE, Length: length, Ratio: ratio, Seed: benchSeed,
		}, pe, p)
	}
	return inputs
}

// BenchmarkFig4 covers the weak-scaling D/N experiment: every algorithm at
// every ratio on a fixed PE count (the harness binary sweeps the PE axis).
func BenchmarkFig4(b *testing.B) {
	const p, nPerPE, length = 8, 1000, 100
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		inputs := dnInputs(p, nPerPE, length, ratio)
		for _, algo := range stringsort.Algorithms {
			b.Run(fmt.Sprintf("DN=%.2f/%v", ratio, algo), func(b *testing.B) {
				runBench(b, inputs, stringsort.Config{Algorithm: algo, Seed: benchSeed})
			})
		}
	}
}

// BenchmarkFig5CommonCrawl covers the COMMONCRAWL-like strong scaling
// experiment at two PE counts.
func BenchmarkFig5CommonCrawl(b *testing.B) {
	const total = 16000
	for _, p := range []int{8, 16} {
		inputs := make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			inputs[pe] = input.CommonCrawlLike(input.CCConfig{
				LinesPerPE: total / p, Seed: benchSeed,
			}, pe, p)
		}
		for _, algo := range stringsort.Algorithms {
			b.Run(fmt.Sprintf("p=%d/%v", p, algo), func(b *testing.B) {
				runBench(b, inputs, stringsort.Config{Algorithm: algo, Seed: benchSeed})
			})
		}
	}
}

// BenchmarkFig5DNA covers the DNAREADS-like strong scaling experiment.
func BenchmarkFig5DNA(b *testing.B) {
	const total = 16000
	for _, p := range []int{8, 16} {
		inputs := make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			inputs[pe] = input.DNAReads(input.DNAConfig{
				ReadsPerPE: total / p, Seed: benchSeed,
			}, pe, p)
		}
		for _, algo := range stringsort.Algorithms {
			b.Run(fmt.Sprintf("p=%d/%v", p, algo), func(b *testing.B) {
				runBench(b, inputs, stringsort.Config{Algorithm: algo, Seed: benchSeed})
			})
		}
	}
}

// BenchmarkSuffixInstance covers the Section VII-E suffix experiment:
// PDMS against the strongest conventional algorithm (MS).
func BenchmarkSuffixInstance(b *testing.B) {
	const textLen = 12000
	const p = 8
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.SuffixInstance(input.SuffixConfig{
			TextLen: textLen, Seed: benchSeed,
		}, pe, p)
	}
	for _, algo := range []stringsort.Algorithm{stringsort.MS, stringsort.PDMS, stringsort.PDMSGolomb} {
		b.Run(algo.String(), func(b *testing.B) {
			runBench(b, inputs, stringsort.Config{Algorithm: algo, Seed: benchSeed})
		})
	}
}

// BenchmarkSkewSampling covers the Section VII-E skew experiment:
// string-based vs character-based sampling for MS on the skewed instance.
func BenchmarkSkewSampling(b *testing.B) {
	const p, nPerPE, length = 8, 800, 80
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.DNSkewed(input.DNConfig{
			StringsPerPE: nPerPE, Length: length, Ratio: 0.5, Seed: benchSeed,
		}, pe, p)
	}
	for _, char := range []bool{false, true} {
		name := "string-sampling"
		if char {
			name = "char-sampling"
		}
		b.Run(name, func(b *testing.B) {
			runBench(b, inputs, stringsort.Config{
				Algorithm: stringsort.MS, Seed: benchSeed, CharSampling: char,
			})
		})
	}
}

// BenchmarkAblationOversampling sweeps the oversampling factor v.
func BenchmarkAblationOversampling(b *testing.B) {
	inputs := dnInputs(8, 1000, 100, 0.5)
	for _, v := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			runBench(b, inputs, stringsort.Config{
				Algorithm: stringsort.MS, Seed: benchSeed, Oversampling: v,
			})
		})
	}
}

// BenchmarkAblationEps sweeps PDMS's prefix growth factor.
func BenchmarkAblationEps(b *testing.B) {
	inputs := dnInputs(8, 1000, 100, 0.25)
	for _, eps := range []float64{0.5, 1, 3} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			runBench(b, inputs, stringsort.Config{
				Algorithm: stringsort.PDMS, Seed: benchSeed, Eps: eps,
			})
		})
	}
}
