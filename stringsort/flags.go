package stringsort

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
)

// TuningFlags bundles the algorithm-tuning command-line flags shared by
// cmd/dss-sort and cmd/dss-worker. Both binaries register the identical
// set through RegisterTuningFlags, so they cannot drift apart: every knob
// that shapes the sort itself (algorithm, sampling, memory budget,
// validation, seed) is accepted by both. Only the flags that describe HOW
// the machine is assembled differ between them — dss-sort owns -p,
// -transport and -peers (it builds the whole machine in one process),
// dss-worker owns -rank, -peers and -rendezvous (one OS process per PE,
// always TCP) — and those gaps are intentional, documented in each
// binary's usage text.
type TuningFlags struct {
	Algo         *string
	Seed         *uint64
	Oversampling *int
	CharSample   *bool
	Eps          *float64
	TieBreak     *bool
	RandomSample *bool
	Codec        *string
	Validate     *bool
	Cores        *int
	MemBudget    *string
	SpillDir     *string
	Trace        *string
	TraceCap     *int
	Chaos        *string
	ChaosSeed    *uint64
	NetRetries   *int
	NetTimeout   *time.Duration
}

// RegisterTuningFlags registers the shared tuning flags on fs (use
// flag.CommandLine for the process-wide set) and returns the handle to
// resolve them after parsing.
func RegisterTuningFlags(fs *flag.FlagSet) *TuningFlags {
	return &TuningFlags{
		Algo:         fs.String("algo", "MS", "algorithm: "+AlgorithmNames()),
		Seed:         fs.Uint64("seed", 1, "random seed (identical on all workers of one job)"),
		Oversampling: fs.Int("oversampling", 0, "per-PE sample count v of Step 2 (0 = automatic 2p-1)"),
		CharSample:   fs.Bool("charsample", false, "character-based splitter sampling (skew experiment)"),
		Eps:          fs.Float64("eps", 0, "PDMS prefix growth factor (0 = default doubling)"),
		TieBreak:     fs.Bool("tiebreak", false, "partition by (string, origin) pairs to spread duplicates"),
		RandomSample: fs.Bool("randomsample", false, "random instead of regular splitter samples"),
		Codec:        fs.String("codec", "none", "wire codec decorating the transport: "+codec.Names()+" (model stats unaffected)"),
		Validate:     fs.Bool("validate", false, "run the distributed verifier after sorting"),
		Cores:        fs.Int("cores", 0, "intra-PE work pool width (0 = GOMAXPROCS, 1 = sequential; output and model stats identical at any width)"),
		MemBudget:    fs.String("mem-budget", "", "per-PE memory budget for the out-of-core pipeline, e.g. 64m or 1g (empty = unbounded in-RAM run; output streamed to sorted-run files when set)"),
		SpillDir:     fs.String("spill-dir", "", "directory for spill page files and sorted-run output (empty = OS temp dir; only with -mem-budget)"),
		Trace:        fs.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (load in ui.perfetto.dev; under dss-worker, rank 0 writes the merged cross-process trace)"),
		TraceCap:     fs.Int("trace-cap", 0, "per-PE trace ring capacity in events (0 = default 32768; the ring keeps the newest events)"),
		Chaos:        fs.String("chaos", "", "fault-injection level wrapped under the codec: "+strings.Join(chaos.Names(), ", ")+" (empty = off; output and model stats must be unaffected)"),
		ChaosSeed:    fs.Uint64("chaos-seed", 1, "seed of the deterministic chaos schedule (same seed = same faults)"),
		NetRetries:   fs.Int("net-retries", 0, "TCP reconnect budget per peer connection (0 = default 8, negative = never reconnect)"),
		NetTimeout:   fs.Duration("net-timeout", 0, "TCP reconnect deadline per attempt (0 = default 10s)"),
	}
}

// Apply resolves the parsed flag values into cfg. It returns an error for
// an unknown algorithm, codec or chaos level, or a malformed budget.
func (tf *TuningFlags) Apply(cfg *Config) error {
	algo, err := ParseAlgorithm(*tf.Algo)
	if err != nil {
		return err
	}
	codecName, err := codec.Parse(*tf.Codec)
	if err != nil {
		return err
	}
	if *tf.Chaos != "" {
		if _, err := chaos.Parse(*tf.Chaos); err != nil {
			return err
		}
	}
	cfg.Algorithm = algo
	cfg.Codec = codecName
	cfg.Seed = *tf.Seed
	cfg.Oversampling = *tf.Oversampling
	cfg.CharSampling = *tf.CharSample
	cfg.Eps = *tf.Eps
	cfg.TieBreak = *tf.TieBreak
	cfg.RandomSampling = *tf.RandomSample
	cfg.Validate = *tf.Validate
	cfg.Cores = *tf.Cores
	budget, err := ParseMemBudget(*tf.MemBudget)
	if err != nil {
		return err
	}
	cfg.MemBudget = budget
	cfg.SpillDir = *tf.SpillDir
	cfg.Trace = *tf.Trace
	cfg.TraceCapacity = *tf.TraceCap
	cfg.Chaos = *tf.Chaos
	cfg.ChaosSeed = *tf.ChaosSeed
	cfg.NetRetries = *tf.NetRetries
	cfg.NetTimeout = *tf.NetTimeout
	return nil
}

// ParseMemBudget resolves a -mem-budget value: a byte count with an
// optional binary suffix k, m or g (case-insensitive), e.g. "64m" = 64
// MiB. Empty means 0 (no budget, in-RAM run). A budget that does not fit
// an int64 is an error.
func ParseMemBudget(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	orig := s
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("stringsort: bad memory budget %q (want e.g. 65536, 64m, 1g)", orig)
	}
	return n * mult, nil
}
