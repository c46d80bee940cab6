// Command dss-bench regenerates the paper's evaluation (Section VII):
// every figure's running-time and bytes-per-string series, plus the
// Section VII-E summary experiments and the ablations listed under Usage.
// Running times are α-β model times, not measurements: the machine is
// simulated (one goroutine per PE), so in place of the paper's wall clock
// on 1280 cores each run reports the cost the paper's own model assigns to
// it — billed character work plus α per message and β per byte on the
// bottleneck PE, all exact counts (README, "Intra-PE parallelism", last
// paragraph, says why that number never moves with the host). Communication
// volumes are exact byte counts.
//
// Usage:
//
//	dss-bench -fig 4            # weak scaling over D/N ratios (Fig. 4)
//	dss-bench -fig 5cc          # strong scaling, COMMONCRAWL-like (Fig. 5 left)
//	dss-bench -fig 5dna         # strong scaling, DNAREADS-like (Fig. 5 right)
//	dss-bench -fig suffix       # Section VII-E suffix instance
//	dss-bench -fig skew         # Section VII-E skewed D/N instance
//	dss-bench -fig ablation-v   # oversampling factor sweep
//	dss-bench -fig ablation-eps # prefix growth factor sweep
//	dss-bench -fig ablation-tie # duplicate tie-breaking extension
//	dss-bench -fig all          # everything
//
// Scale knobs: -pes, -n (strings per PE, weak scaling), -len, -total
// (strings, strong scaling), -seed. Every cell runs with the default
// configuration otherwise: the model panels do not move with the wire
// codec, the pool width, a trace or injected faults, and
// TestBenchSnapshotModelInvariance checks that on the Fig. 4/5 cells.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dss/internal/input"
	"dss/internal/profiling"
	"dss/internal/strutil"
	"dss/stringsort"
)

type options struct {
	fig    string
	pes    []int
	nPerPE int
	length int
	total  int
	seed   int64
}

func main() {
	var opt options
	var pesFlag string
	flag.StringVar(&opt.fig, "fig", "all", "experiment to run: 4, 5cc, 5dna, suffix, skew, ablation-v, ablation-eps, ablation-tie, all")
	flag.StringVar(&pesFlag, "pes", "2,4,8,16,32,64", "comma-separated PE counts")
	flag.IntVar(&opt.nPerPE, "n", 1000, "strings per PE (weak scaling)")
	flag.IntVar(&opt.length, "len", 100, "string length for D/N instances")
	flag.IntVar(&opt.total, "total", 30000, "total strings (strong scaling)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := profiling.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}
	defer profiling.Stop()

	for _, part := range strings.Split(pesFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "invalid PE count %q\n", part)
			profiling.Exit(2)
		}
		opt.pes = append(opt.pes, p)
	}

	start := time.Now()
	switch opt.fig {
	case "4":
		figure4(opt)
	case "5cc":
		figure5CC(opt)
	case "5dna":
		figure5DNA(opt)
	case "suffix":
		suffixExperiment(opt)
	case "skew":
		skewExperiment(opt)
	case "ablation-v":
		ablationOversampling(opt)
	case "ablation-eps":
		ablationEps(opt)
	case "ablation-tie":
		ablationTieBreak(opt)
	case "all":
		figure4(opt)
		figure5CC(opt)
		figure5DNA(opt)
		suffixExperiment(opt)
		skewExperiment(opt)
		ablationOversampling(opt)
		ablationEps(opt)
		ablationTieBreak(opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", opt.fig)
		profiling.Exit(2)
	}
	fmt.Printf("\n(total harness wall time: %v)\n", time.Since(start).Round(time.Millisecond))
}

// sortCell sorts one cell's distributed input under cfg, exiting on error.
func sortCell(inputs [][][]byte, cfg stringsort.Config) *stringsort.Result {
	res, err := stringsort.Sort(inputs, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v failed: %v\n", cfg.Algorithm, err)
		profiling.Exit(1)
	}
	return res
}

// deal builds a p-PE distributed input from a per-PE generator.
func deal(p int, gen func(pe, p int) [][]byte) [][][]byte {
	inputs := make([][][]byte, p)
	for pe := range inputs {
		inputs[pe] = gen(pe, p)
	}
	return inputs
}

// series runs all algorithms over the PE axis and prints the two panels of
// the figure.
func series(title string, pes []int, gen func(pe, p int) [][]byte, seed uint64, algos []stringsort.Algorithm) {
	fmt.Printf("\n=== %s ===\n", title)
	times := make(map[stringsort.Algorithm][]float64)
	vols := make(map[stringsort.Algorithm][]float64)
	for _, p := range pes {
		inputs := deal(p, gen)
		for _, algo := range algos {
			st := sortCell(inputs, stringsort.Config{Algorithm: algo, Seed: seed}).Stats
			times[algo] = append(times[algo], st.ModelTime)
			vols[algo] = append(vols[algo], st.BytesPerString)
		}
	}
	printPanel("model time (s)", pes, algos, times, "%9.4f")
	printPanel("bytes sent per string", pes, algos, vols, "%9.1f")
}

func printPanel(label string, pes []int, algos []stringsort.Algorithm, data map[stringsort.Algorithm][]float64, cellFmt string) {
	fmt.Printf("-- %s --\n", label)
	fmt.Printf("%-6s", "p")
	for _, a := range algos {
		fmt.Printf(" %12s", a)
	}
	fmt.Println()
	for i, p := range pes {
		fmt.Printf("%-6d", p)
		for _, a := range algos {
			fmt.Printf(" %12s", fmt.Sprintf(cellFmt, data[a][i]))
		}
		fmt.Println()
	}
}

// figure4 reproduces the weak scaling experiment over D/N ratios: the top
// row (running time) and bottom row (bytes per string) of Figure 4.
func figure4(opt options) {
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		cfg := input.DNConfig{
			StringsPerPE: opt.nPerPE, Length: opt.length, Ratio: r, Seed: opt.seed,
		}
		title := fmt.Sprintf("Figure 4: weak scaling, D/N = %.2f (%d strings × %d chars per PE)",
			r, opt.nPerPE, opt.length)
		series(title, opt.pes, func(pe, p int) [][]byte {
			return input.DN(cfg, pe, p)
		}, uint64(opt.seed), stringsort.Algorithms)
	}
}

// figure5CC reproduces the COMMONCRAWL strong scaling experiment. The
// paper could not run FKmerge here (it crashes on repeated strings); our
// implementation handles duplicates, so FKmerge is included for reference.
func figure5CC(opt options) {
	title := fmt.Sprintf("Figure 5 (left): strong scaling, COMMONCRAWL-like (%d lines total)", opt.total)
	series(title, opt.pes, func(pe, p int) [][]byte {
		return input.CommonCrawlLike(input.CCConfig{
			LinesPerPE: opt.total / p, Seed: opt.seed,
		}, pe, p)
	}, uint64(opt.seed), stringsort.Algorithms)
}

// figure5DNA reproduces the DNAREADS strong scaling experiment.
func figure5DNA(opt options) {
	title := fmt.Sprintf("Figure 5 (right): strong scaling, DNAREADS-like (%d reads total)", opt.total)
	series(title, opt.pes, func(pe, p int) [][]byte {
		return input.DNAReads(input.DNAConfig{
			ReadsPerPE: opt.total / p, Seed: opt.seed,
		}, pe, p)
	}, uint64(opt.seed), stringsort.Algorithms)
}

// suffixExperiment reproduces the Section VII-E suffix instance: all
// suffixes of one text, D/N ≪ 1, where PDMS wins by a large factor.
func suffixExperiment(opt options) {
	textLen := opt.total
	title := fmt.Sprintf("Section VII-E: suffix instance (%d suffixes, D/N ≪ 1)", textLen)
	// Report the actual D/N of the instance.
	all := input.Gather(func(pe int) [][]byte {
		return input.SuffixInstance(input.SuffixConfig{TextLen: textLen, Seed: opt.seed}, pe, 1)
	}, 1)
	dn := float64(strutil.TotalD(all)) / float64(strutil.TotalLen(all))
	fmt.Printf("\n(suffix instance D/N = %.5f)\n", dn)
	series(title, opt.pes, func(pe, p int) [][]byte {
		return input.SuffixInstance(input.SuffixConfig{TextLen: textLen, Seed: opt.seed}, pe, p)
	}, uint64(opt.seed), stringsort.Algorithms)
}

// skewExperiment reproduces the Section VII-E skewed D/N instance,
// comparing string-based against character-based sampling for MS.
func skewExperiment(opt options) {
	fmt.Printf("\n=== Section VII-E: skewed D/N instance (20%% of strings padded 4×) ===\n")
	cfg := input.DNConfig{
		StringsPerPE: opt.nPerPE, Length: opt.length, Ratio: 0.5, Seed: opt.seed,
	}
	fmt.Printf("%-6s %14s %14s %18s %18s\n", "p",
		"MS-str time", "MS-char time", "MS-str recv-imbal", "MS-char recv-imbal")
	for _, p := range opt.pes {
		inputs := deal(p, func(pe, p int) [][]byte { return input.DNSkewed(cfg, pe, p) })
		row := make([]float64, 0, 4)
		for _, char := range []bool{false, true} {
			res := sortCell(inputs, stringsort.Config{
				Algorithm: stringsort.MS, Seed: uint64(opt.seed), CharSampling: char,
			})
			recvImbal := 1.0
			if res.Stats.MeanBytesRecv > 0 {
				recvImbal = float64(res.Stats.MaxBytesRecv) / res.Stats.MeanBytesRecv
			}
			row = append(row, res.Stats.ModelTime, recvImbal)
		}
		fmt.Printf("%-6d %14.4f %14.4f %18.3f %18.3f\n", p, row[0], row[2], row[1], row[3])
	}
}

// ablationOversampling sweeps the oversampling factor v for MS.
func ablationOversampling(opt options) {
	fmt.Printf("\n=== Ablation: oversampling factor v (MS, D/N = 0.5) ===\n")
	p := opt.pes[len(opt.pes)-1]
	cfg := input.DNConfig{StringsPerPE: opt.nPerPE, Length: opt.length, Ratio: 0.5, Seed: opt.seed}
	inputs := deal(p, func(pe, p int) [][]byte { return input.DN(cfg, pe, p) })
	fmt.Printf("%-6s %14s %14s %12s\n", "v", "model time", "bytes/string", "imbalance")
	for _, v := range []int{2, 4, 8, 16, 32, 64} {
		res := sortCell(inputs, stringsort.Config{
			Algorithm: stringsort.MS, Seed: uint64(opt.seed), Oversampling: v,
		})
		fmt.Printf("%-6d %14.4f %14.1f %12.3f\n", v, res.Stats.ModelTime,
			res.Stats.BytesPerString, res.Stats.Imbalance)
	}
}

// ablationEps sweeps PDMS's prefix growth factor (1+ε).
func ablationEps(opt options) {
	fmt.Printf("\n=== Ablation: prefix growth factor 1+ε (PDMS, D/N = 0.25) ===\n")
	p := opt.pes[len(opt.pes)-1]
	cfg := input.DNConfig{StringsPerPE: opt.nPerPE, Length: opt.length, Ratio: 0.25, Seed: opt.seed}
	inputs := deal(p, func(pe, p int) [][]byte { return input.DN(cfg, pe, p) })
	fmt.Printf("%-6s %14s %14s\n", "eps", "model time", "bytes/string")
	for _, eps := range []float64{0.5, 1, 2, 3} {
		res := sortCell(inputs, stringsort.Config{
			Algorithm: stringsort.PDMS, Seed: uint64(opt.seed), Eps: eps,
		})
		fmt.Printf("%-6.1f %14.4f %14.1f\n", eps, res.Stats.ModelTime, res.Stats.BytesPerString)
	}
}

// ablationTieBreak measures the Section VIII duplicate-handling extension:
// an input dominated by repeated strings, MS with and without tie
// breaking. The metric is the bottleneck receive volume over the mean
// (1.0 = perfectly spread duplicates).
func ablationTieBreak(opt options) {
	fmt.Printf("\n=== Ablation: tie breaking on duplicate-heavy input (MS) ===\n")
	fmt.Printf("%-6s %18s %18s %14s %14s\n", "p",
		"plain frag-imbal", "tie frag-imbal", "plain time", "tie time")
	for _, p := range opt.pes {
		// 70%% copies of 4 hot strings, 30%% unique: each hot value has
		// 0.175·n copies, far above the per-PE share n/p for p ≥ 8.
		inputs := make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			for j := 0; j < opt.nPerPE; j++ {
				if j%10 < 7 {
					inputs[pe] = append(inputs[pe],
						[]byte(fmt.Sprintf("hot-string-%02d", (pe+j)%4)))
				} else {
					inputs[pe] = append(inputs[pe],
						[]byte(fmt.Sprintf("unique-%03d-%06d", pe, j)))
				}
			}
		}
		row := make([]float64, 0, 4)
		for _, tie := range []bool{false, true} {
			res := sortCell(inputs, stringsort.Config{
				Algorithm: stringsort.MS, Seed: uint64(opt.seed), TieBreak: tie,
			})
			// Fragment-size imbalance: duplicates are nearly free to
			// *transmit* under LCP compression, but they still pile onto
			// one PE's output (and its merge) without tie breaking.
			maxFrag, total := 0, 0
			for _, frag := range res.PEs {
				total += len(frag.Strings)
				if len(frag.Strings) > maxFrag {
					maxFrag = len(frag.Strings)
				}
			}
			imbal := float64(maxFrag) / (float64(total) / float64(p))
			row = append(row, imbal, res.Stats.ModelTime)
		}
		fmt.Printf("%-6d %18.3f %18.3f %14.4f %14.4f\n", p, row[0], row[2], row[1], row[3])
	}
}
