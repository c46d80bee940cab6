package stringsort

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
)

// RegisterTuningFlags registers the algorithm-tuning command-line flags
// shared by cmd/dss-sort and cmd/dss-worker on fs (use flag.CommandLine for
// the process-wide set): it sets each field of cfg to its flag's default and
// binds the flag to that field, so parsing fs fills cfg in. -algo, -codec,
// -chaos and -mem-budget are parsed and checked during the parse. Both
// binaries register the identical set, so they cannot drift apart: every
// knob that shapes the sort itself (algorithm, sampling, memory budget,
// validation, seed) is accepted by both. Only the flags that describe HOW
// the machine is assembled differ between them — dss-sort owns -p,
// -transport and -peers (it builds the whole machine in one process),
// dss-worker owns -rank, -peers and -rendezvous (one OS process per PE,
// always TCP) — and those gaps are intentional, documented in each
// binary's usage text.
func RegisterTuningFlags(fs *flag.FlagSet, cfg *Config) {
	cfg.Algorithm, cfg.Codec, cfg.Chaos, cfg.MemBudget = MS, "none", "", 0
	fs.Var(&parsedFlag[Algorithm]{&cfg.Algorithm, ParseAlgorithm, Algorithm.String},
		"algo", "algorithm `name`: "+AlgorithmNames())
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed (identical on all workers of one job)")
	fs.IntVar(&cfg.Oversampling, "oversampling", 0, "per-PE sample count v of Step 2 (0 = automatic max(2p-1, 15); MS-simple, MS, PDMS, PDMS-Golomb)")
	fs.BoolVar(&cfg.CharSampling, "charsample", false, "character-based splitter sampling (skew experiment; MS-simple, MS, PDMS, PDMS-Golomb)")
	fs.Float64Var(&cfg.Eps, "eps", 0, "PDMS prefix growth factor (0 = default doubling)")
	fs.BoolVar(&cfg.TieBreak, "tiebreak", false, "partition by (string, origin) pairs to spread duplicates (MS-simple, MS)")
	fs.BoolVar(&cfg.RandomSampling, "randomsample", false, "random instead of regular splitter samples (MS-simple, MS)")
	fs.Var(&parsedFlag[string]{&cfg.Codec, codec.Parse, verbatim},
		"codec", "wire codec `name` decorating the transport: "+codec.Names()+" (model stats unaffected)")
	fs.BoolVar(&cfg.Validate, "validate", false, "run the distributed verifier after sorting")
	fs.IntVar(&cfg.Cores, "cores", 0, "intra-PE work pool width (0 = GOMAXPROCS, 1 = sequential; output and model stats identical at any width)")
	fs.Var(&parsedFlag[int64]{&cfg.MemBudget, ParseMemBudget, showBudget},
		"mem-budget", "per-PE memory budget for the out-of-core pipeline, a `size` such as 64m or 1g (empty = unbounded in-RAM run; output streamed to sorted-run files when set)")
	fs.StringVar(&cfg.SpillDir, "spill-dir", "", "directory for spill page files, sorted-run output and the temporary copy of a piped input or output (empty = OS temp dir)")
	fs.StringVar(&cfg.Trace, "trace", "", "write a Chrome trace-event JSON timeline of the run to this file (load in ui.perfetto.dev; under dss-worker, rank 0 writes the merged cross-process trace)")
	fs.Var(&parsedFlag[string]{&cfg.Chaos, parseChaos, verbatim},
		"chaos", "fault-injection `level` wrapped under the codec: "+strings.Join(chaos.Names(), ", ")+" (empty = off; output and model stats must be unaffected)")
	fs.Uint64Var(&cfg.ChaosSeed, "chaos-seed", 1, "seed of the deterministic chaos schedule (same seed = same faults)")
	fs.DurationVar(&cfg.NetTimeout, "net-timeout", 0, "TCP shutdown bound: how long closing waits for the last frames to be written and every peer's goodbye (0 = default 10s)")
}

// parsedFlag binds a flag to *dst through parse, which checks the value
// while the flag set is parsed; show prints the value (the -h default).
type parsedFlag[T any] struct {
	dst   *T
	parse func(string) (T, error)
	show  func(T) string
}

func (f *parsedFlag[T]) Set(s string) error {
	v, err := f.parse(s)
	if err == nil {
		*f.dst = v
	}
	return err
}

func (f *parsedFlag[T]) String() string {
	if f == nil || f.dst == nil { // the zero value flag.PrintDefaults probes
		return ""
	}
	return f.show(*f.dst)
}

func verbatim(s string) string { return s }

// parseChaos checks a -chaos level; empty means off.
func parseChaos(s string) (string, error) {
	if s == "" {
		return s, nil
	}
	_, err := chaos.Parse(s)
	return s, err
}

// showBudget prints a budget the way -mem-budget accepts it; 0 is empty.
func showBudget(n int64) string {
	if n == 0 {
		return ""
	}
	return strconv.FormatInt(n, 10)
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
