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
//	dss-bench -fig ablation-a2a # all-to-all routing tradeoff
//	dss-bench -fig ablation-tie # duplicate tie-breaking extension
//	dss-bench -fig all          # everything
//
// Scale knobs: -pes, -n (strings per PE, weak scaling), -len, -total
// (strings, strong scaling), -seed. -codec decorates the transport with a
// wire codec and adds the wire-bytes-per-string panel to every figure
// series (the model panels are codec-invariant by construction).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dss/internal/comm"
	"dss/internal/input"
	"dss/internal/profiling"
	"dss/internal/strutil"
	"dss/stringsort"
)

// benchCores is the -cores value: the intra-PE work pool width every
// sort of the harness runs with. The model panels are width-invariant by
// construction; the flag exists so wall-clock behavior can be compared
// across widths on the full figure workloads.
var benchCores int

// benchTraceDir is the -trace value: when set, every sort of the harness
// writes its own Chrome trace-event timeline into this directory. The
// model panels are trace-invariant by construction.
var benchTraceDir string

// benchTraceSeq numbers the trace files in run order (the harness runs
// its cells sequentially), so one -fig all sweep yields a browsable,
// ordered directory of timelines.
var benchTraceSeq int

// benchChaos/benchChaosSeed are the -chaos/-chaos-seed values: every sort
// of the harness runs under the named fault-injection level. The model
// panels are chaos-invariant by construction — the knob exists to confirm
// exactly that on the full figure workloads (and to measure the wall-time
// cost of recovery).
var (
	benchChaos     string
	benchChaosSeed uint64
)

// benchTracePath names the next cell's trace file ("" when -trace is
// unset): NNN-algo-pP.json, e.g. 017-PDMS-p32.json.
func benchTracePath(algo stringsort.Algorithm, p int) string {
	if benchTraceDir == "" {
		return ""
	}
	benchTraceSeq++
	return filepath.Join(benchTraceDir, fmt.Sprintf("%03d-%s-p%d.json", benchTraceSeq, algo, p))
}

type options struct {
	fig    string
	pes    []int
	nPerPE int
	length int
	total  int
	seed   int64
	codec  string
}

func main() {
	var opt options
	var pesFlag string
	flag.StringVar(&opt.fig, "fig", "all", "experiment to run: 4, 5cc, 5dna, suffix, skew, ablation-v, ablation-eps, ablation-a2a, ablation-tie, all")
	flag.StringVar(&pesFlag, "pes", "2,4,8,16,32,64", "comma-separated PE counts")
	flag.IntVar(&opt.nPerPE, "n", 1000, "strings per PE (weak scaling)")
	flag.IntVar(&opt.length, "len", 100, "string length for D/N instances")
	flag.IntVar(&opt.total, "total", 30000, "total strings (strong scaling)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.StringVar(&opt.codec, "codec", "none", "wire codec decorating the transport (none, flate, lcp); adds a wire-bytes panel")
	flag.IntVar(&benchCores, "cores", 0, "intra-PE work pool width per PE (0 = GOMAXPROCS, 1 = sequential; model panels are width-invariant)")
	flag.StringVar(&benchTraceDir, "trace", "", "write one Chrome trace-event JSON timeline per benchmark cell into this directory (created if missing; model panels are trace-invariant)")
	flag.StringVar(&benchChaos, "chaos", "", "fault-injection level for every cell: delay, reorder, drop (empty = off; model panels are chaos-invariant)")
	flag.Uint64Var(&benchChaosSeed, "chaos-seed", 1, "seed of the deterministic chaos schedule")
	profiling.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if benchTraceDir != "" {
		if err := os.MkdirAll(benchTraceDir, 0o777); err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(2)
		}
	}
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
	case "ablation-a2a":
		ablationAlltoall(opt)
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
		ablationAlltoall(opt)
		ablationTieBreak(opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", opt.fig)
		profiling.Exit(2)
	}
	fmt.Printf("\n(total harness wall time: %v)\n", time.Since(start).Round(time.Millisecond))
}

// runOne sorts the given distributed input and returns its statistics.
func runOne(inputs [][][]byte, algo stringsort.Algorithm, seed uint64, charSampling bool, codec string) stringsort.Stats {
	res, err := stringsort.Sort(inputs, stringsort.Config{
		Algorithm:    algo,
		Seed:         seed,
		Cores:        benchCores,
		CharSampling: charSampling,
		Codec:        codec,
		Trace:        benchTracePath(algo, len(inputs)),
		Chaos:        benchChaos,
		ChaosSeed:    benchChaosSeed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v failed: %v\n", algo, err)
		profiling.Exit(1)
	}
	return res.Stats
}

// series runs all algorithms over the PE axis and prints the two panels of
// the figure — plus, when a wire codec is selected, the wire-bytes and
// compression-ratio panels (what actually crossed the fabric; the model
// panels are codec-invariant), and, unless the pool is forced sequential,
// the measured merge-parallelism panel (PE-summed CPU ms inside the Step-4
// merge over the merge wall ms: a ratio above 1 proves the partitioned
// merge ran in parallel; ≈1 on single-CPU hosts or below the par-merge
// threshold).
func series(title string, pes []int, gen func(pe, p int) [][]byte, seed uint64, algos []stringsort.Algorithm, codec string) {
	fmt.Printf("\n=== %s ===\n", title)
	times := make(map[stringsort.Algorithm][]float64)
	vols := make(map[stringsort.Algorithm][]float64)
	wires := make(map[stringsort.Algorithm][]float64)
	ratios := make(map[stringsort.Algorithm][]float64)
	mergePar := make(map[stringsort.Algorithm][]float64)
	for _, p := range pes {
		inputs := make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			inputs[pe] = gen(pe, p)
		}
		for _, algo := range algos {
			st := runOne(inputs, algo, seed, false, codec)
			times[algo] = append(times[algo], st.ModelTime)
			vols[algo] = append(vols[algo], st.BytesPerString)
			wires[algo] = append(wires[algo], st.WireBytesPerString)
			ratios[algo] = append(ratios[algo], st.CompressionRatio)
			par := 1.0
			if st.MergeWallMS > 0 {
				par = st.MergeCPUMS / st.MergeWallMS
			}
			mergePar[algo] = append(mergePar[algo], par)
		}
	}
	printPanel("model time (s)", pes, algos, times, "%9.4f")
	printPanel("bytes sent per string", pes, algos, vols, "%9.1f")
	if codec != "" && codec != "none" {
		printPanel(fmt.Sprintf("wire bytes per string (codec=%s)", codec), pes, algos, wires, "%9.1f")
		printPanel(fmt.Sprintf("compression ratio, wire/raw (codec=%s)", codec), pes, algos, ratios, "%9.3f")
	}
	if benchCores != 1 {
		printPanel("merge CPU / merge wall (measured; >1 = partitioned Step-4 merge engaged)",
			pes, algos, mergePar, "%9.3f")
	}
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
		}, uint64(opt.seed), stringsort.Algorithms, opt.codec)
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
	}, uint64(opt.seed), stringsort.Algorithms, opt.codec)
}

// figure5DNA reproduces the DNAREADS strong scaling experiment.
func figure5DNA(opt options) {
	title := fmt.Sprintf("Figure 5 (right): strong scaling, DNAREADS-like (%d reads total)", opt.total)
	series(title, opt.pes, func(pe, p int) [][]byte {
		return input.DNAReads(input.DNAConfig{
			ReadsPerPE: opt.total / p, Seed: opt.seed,
		}, pe, p)
	}, uint64(opt.seed), stringsort.Algorithms, opt.codec)
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
	}, uint64(opt.seed), stringsort.Algorithms, opt.codec)
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
		inputs := make([][][]byte, p)
		for pe := 0; pe < p; pe++ {
			inputs[pe] = input.DNSkewed(cfg, pe, p)
		}
		row := make([]float64, 0, 4)
		for _, char := range []bool{false, true} {
			res, err := stringsort.Sort(inputs, stringsort.Config{
				Algorithm:    stringsort.MS,
				Seed:         uint64(opt.seed),
				CharSampling: char,
				Cores:        benchCores,
				Trace:        benchTracePath(stringsort.MS, p),
				Chaos:        benchChaos,
				ChaosSeed:    benchChaosSeed,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				profiling.Exit(1)
			}
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
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.DN(cfg, pe, p)
	}
	fmt.Printf("%-6s %14s %14s %12s\n", "v", "model time", "bytes/string", "imbalance")
	for _, v := range []int{2, 4, 8, 16, 32, 64} {
		res, err := stringsort.Sort(inputs, stringsort.Config{
			Algorithm:    stringsort.MS,
			Seed:         uint64(opt.seed),
			Oversampling: v,
			Cores:        benchCores,
			Trace:        benchTracePath(stringsort.MS, p),
			Chaos:        benchChaos,
			ChaosSeed:    benchChaosSeed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		fmt.Printf("%-6d %14.4f %14.1f %12.3f\n", v, res.Stats.ModelTime,
			res.Stats.BytesPerString, res.Stats.Imbalance)
	}
}

// ablationEps sweeps PDMS's prefix growth factor (1+ε).
func ablationEps(opt options) {
	fmt.Printf("\n=== Ablation: prefix growth factor 1+ε (PDMS, D/N = 0.25) ===\n")
	p := opt.pes[len(opt.pes)-1]
	cfg := input.DNConfig{StringsPerPE: opt.nPerPE, Length: opt.length, Ratio: 0.25, Seed: opt.seed}
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.DN(cfg, pe, p)
	}
	fmt.Printf("%-6s %14s %14s\n", "eps", "model time", "bytes/string")
	for _, eps := range []float64{0.5, 1, 2, 3} {
		res, err := stringsort.Sort(inputs, stringsort.Config{
			Algorithm: stringsort.PDMS,
			Seed:      uint64(opt.seed),
			Eps:       eps,
			Cores:     benchCores,
			Trace:     benchTracePath(stringsort.PDMS, p),
			Chaos:     benchChaos,
			ChaosSeed: benchChaosSeed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
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
			res, err := stringsort.Sort(inputs, stringsort.Config{
				Algorithm: stringsort.MS,
				Seed:      uint64(opt.seed),
				TieBreak:  tie,
				Cores:     benchCores,
				Trace:     benchTracePath(stringsort.MS, p),
				Chaos:     benchChaos,
				ChaosSeed: benchChaosSeed,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				profiling.Exit(1)
			}
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

// ablationAlltoall compares the direct and hypercube all-to-all primitives
// on equal payloads: the volume/latency tradeoff of Section II.
func ablationAlltoall(opt options) {
	fmt.Printf("\n=== Ablation: all-to-all routing (direct vs hypercube) ===\n")
	fmt.Printf("%-6s %16s %16s %16s %16s\n", "p",
		"direct msgs/PE", "hcube msgs/PE", "direct bytes", "hcube bytes")
	for _, p := range opt.pes {
		if p&(p-1) != 0 {
			continue // hypercube variant needs powers of two
		}
		const payload = 2048
		run := func(hyper bool) (int64, int64) {
			m := comm.New(p)
			err := m.Run(func(c *comm.Comm) error {
				g := c.World()
				parts := make([][]byte, p)
				for i := range parts {
					parts[i] = make([]byte, payload)
				}
				if hyper {
					g.AlltoallvHypercube(parts)
				} else {
					g.Alltoallv(parts)
				}
				return nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				profiling.Exit(1)
			}
			rep := m.Report()
			return rep.PEs[0].Total().Messages, rep.TotalBytesSent()
		}
		dm, db := run(false)
		hm, hb := run(true)
		fmt.Printf("%-6d %16d %16d %16d %16d\n", p, dm, hm, db, hb)
	}
}
