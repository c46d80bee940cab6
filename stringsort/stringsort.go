// Package stringsort is the public API of the distributed string sorting
// library, a Go reproduction of "Communication-Efficient String Sorting"
// (Bingmann, Sanders, Schimek; IPDPS 2020). It sorts large string sets on
// a simulated distributed-memory machine with p processing elements and
// reports exact communication statistics alongside a model running time.
//
// Quick start:
//
//	out, err := stringsort.Sort(inputs, stringsort.Config{
//		P:         8,
//		Algorithm: stringsort.PDMS,
//	})
//
// where inputs[pe] is PE pe's local string array. The result contains each
// PE's fragment of the globally sorted sequence, the per-fragment LCP
// arrays, and the communication/work statistics the paper's evaluation is
// based on. examples/quickstart and examples/paperwalkthrough are
// complete programs.
package stringsort

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/dupdetect"
	"dss/internal/par"
	"dss/internal/partition"
	"dss/internal/spill"
	"dss/internal/stats"
	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
)

// Algorithm selects one of the paper's six evaluated sorting algorithms.
type Algorithm int

// The algorithms of the Section VII evaluation.
const (
	// HQuick is hypercube quicksort adapted to strings (Section IV): the
	// atomic baseline with polylogarithmic latency.
	HQuick Algorithm = iota
	// FKMerge is the Fischer-Kurpicz distributed mergesort (Section II-C),
	// the only previously published distributed string sorter.
	FKMerge
	// MSSimple is Distributed String Merge Sort with no LCP optimizations.
	MSSimple
	// MS is Distributed String Merge Sort with LCP compression and
	// LCP-aware merging (Section V).
	MS
	// PDMS is Distributed Prefix-Doubling String Merge Sort (Section VI).
	PDMS
	// PDMSGolomb is PDMS with Golomb-coded duplicate detection messages.
	PDMSGolomb
)

// Algorithms lists all algorithms in evaluation order.
var Algorithms = []Algorithm{FKMerge, HQuick, MSSimple, MS, PDMSGolomb, PDMS}

// String returns the paper's name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case HQuick:
		return "hQuick"
	case FKMerge:
		return "FKmerge"
	case MSSimple:
		return "MS-simple"
	case MS:
		return "MS"
	case PDMS:
		return "PDMS"
	case PDMSGolomb:
		return "PDMS-Golomb"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a (case-insensitive) algorithm name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("stringsort: unknown algorithm %q (have %v)", name, Algorithms)
}

// AlgorithmNames returns the canonical algorithm names in evaluation order,
// comma-separated — the single source for CLI usage strings.
func AlgorithmNames() string {
	names := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		names[i] = a.String()
	}
	return strings.Join(names, ", ")
}

// ParsePeers splits a comma-separated host:port peer table, trimming
// whitespace around each entry. Empty input yields nil.
func ParsePeers(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Transport selects the message substrate a Sort run executes on. The
// algorithms and the reported statistics are substrate-independent: byte
// accounting happens at the comm layer, so model time and bytes/string are
// bit-identical across transports.
type Transport int

const (
	// TransportLocal runs every PE as a goroutine with in-process
	// mailboxes (the default; zero setup cost).
	TransportLocal Transport = iota
	// TransportTCP runs every PE over real TCP sockets — loopback ports
	// chosen automatically, or the addresses in Config.TCPPeers. The PEs
	// still live in this process; use RunPE and cmd/dss-worker to spread
	// them over OS processes and hosts.
	TransportTCP
)

// Transports lists the selectable substrates.
var Transports = []Transport{TransportLocal, TransportTCP}

// String returns the canonical transport name.
func (t Transport) String() string {
	switch t {
	case TransportLocal:
		return "local"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// ParseTransport resolves a (case-insensitive) transport name.
func ParseTransport(name string) (Transport, error) {
	for _, t := range Transports {
		if strings.EqualFold(t.String(), name) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("stringsort: unknown transport %q (have %v)", name, Transports)
}

// Origin identifies the provenance of a PDMS output prefix.
type Origin struct {
	PE    int
	Index int
}

// Config configures one sorting run.
type Config struct {
	// P is the number of processing elements (default: len(inputs)).
	P int
	// Algorithm selects the sorter. The zero value is HQuick; the CLIs
	// default to MS through RegisterTuningFlags.
	Algorithm Algorithm
	// Oversampling is the per-PE sample count v of Step 2 in MS-simple, MS,
	// PDMS and PDMS-Golomb; 0 picks v = max(2p−1, 15) (Θ(p),
	// quantile-aligned). FKmerge always draws p−1 samples.
	Oversampling int
	// CharSampling switches MS-simple, MS, PDMS and PDMS-Golomb to
	// character-based splitter sampling (Theorem 3 load balancing; the skew
	// experiment of Section VII-E). PDMS weighs each string by its
	// approximated distinguishing prefix length.
	CharSampling bool
	// Eps is the prefix growth factor of PDMS and PDMS-Golomb; 0 means 1
	// (doubling).
	Eps float64
	// TieBreak partitions by (string, origin) pairs in MS-simple and MS,
	// spreading duplicated strings evenly over PEs (Section VIII).
	TieBreak bool
	// RandomSampling draws random instead of regular samples in MS-simple
	// and MS (Section VIII).
	RandomSampling bool
	// Seed drives all randomized components.
	Seed uint64
	// Validate runs the distributed verifier after sorting and fails the
	// run on any violation (sorting statistics unaffected; validation
	// volume is excluded).
	Validate bool
	// Reconstruct materializes full strings for PDMS results, after the
	// statistics snapshot, so it never reaches them. Sort resolves each
	// output prefix's origin by lookup in inputs, with no communication, so
	// the strings alias the caller's input bytes. RunPE, where each rank
	// holds only its own fragment, queries the origin PEs with
	// core.Reconstruct instead. Ignored under a memory budget (see
	// MemBudget) and by SortToFile, which always writes full lines.
	Reconstruct bool
	// Transport selects the message substrate (default TransportLocal).
	Transport Transport
	// TCPPeers optionally pins the TCP transport's bind addresses, one
	// host:port per PE (len must equal P). Empty means automatic loopback
	// ports. Ignored by the local transport.
	TCPPeers []string
	// Codec names the wire codec decorating the transport ("", "none",
	// "flate", "lcp"): frames are compressed before they cross the fabric
	// and restored on receive. The paper's statistics are unaffected —
	// model time and bytes/string are billed on the raw payloads and stay
	// bit-identical under every codec — while Stats.WireBytes reports what
	// actually crossed the wire. Works identically over the local and TCP
	// substrates, with and without a memory budget.
	Codec string
	// Cores bounds the intra-PE work pool: each PE spreads its Step-1
	// local sort, Step-3 bucket encode and run decode over up to Cores
	// workers. 0 selects runtime.GOMAXPROCS(0); 1 forces the exact
	// sequential path. The deterministic statistics — sorted output, LCPs,
	// work units, model time, bytes/string — are bit-identical at every
	// width; only wall clock (and the measured CPU channel) changes.
	Cores int
	// MemBudget > 0 switches the run to the bounded-memory out-of-core
	// pipeline: each PE meters the Step-3 run arenas against this per-PE
	// byte budget, spills whole runs to page files once over budget, and
	// streams its merged fragment to a sorted-run file instead of
	// materializing it (PEOutput.RunFile; Strings/LCPs/Origins stay nil;
	// SortToFile streams it into the output file instead).
	// Sorted output bytes and the deterministic statistics are identical to
	// the unbudgeted run; peak metered memory stays within the budget plus
	// a fixed per-PE overhead (see README, "Out-of-core pipeline"). The
	// Reconstruct option is ignored in budget mode — PDMS run files carry
	// each prefix's origin for the caller to resolve. hQuick bounds only
	// its output accumulation (its doubling working set is inherently
	// resident).
	MemBudget int64
	// SpillDir is where budget-mode page files and run files live,
	// SortToFile's temporary file for an output that takes no positioned
	// writes, and dss-sort's for an input that takes no positioned reads
	// ("" means the OS temp dir). Page files are removed when the
	// run ends, on success and failure alike.
	SpillDir string
	// Trace, when non-empty, writes a Chrome trace-event JSON timeline of
	// the run to this file: per-PE phase spans, per-message transport
	// events, worker-goroutine busy spans, merge seam instants and spill
	// counter samples, loadable in Perfetto (ui.perfetto.dev) or
	// chrome://tracing. Tracing never touches the deterministic statistics
	// — model time and bytes/string stay bit-identical with tracing on or
	// off. Under Sort and RunPE alike every PE's buffer is gathered to
	// rank 0 after the run (clock-aligned, after validation, so its rounds
	// show too) and only rank 0 writes the file.
	Trace string
	// Chaos names a fault-injection severity level ("delay", "reorder";
	// see transport/chaos) decorating the transport UNDER the wire codec:
	// frames are delayed and, at "reorder", reordered across independent
	// streams. The sorted output and the deterministic statistics are
	// bit-identical to an undisturbed run; only the measured channel (wall
	// clock) shows the faults. Empty disables chaos.
	Chaos string
	// ChaosSeed selects the deterministic fault schedule (frame delays are
	// a pure function of seed, rank and send sequence).
	ChaosSeed uint64
	// NetTimeout bounds the TCP transport's staged shutdown: how long
	// closing an endpoint waits for its outbound frames to be written and
	// for every peer's goodbye. 0 means the transport default (10 s).
	NetTimeout time.Duration

	// blockingExchange selects the bulk-synchronous reference of the
	// Step-3 exchange (it completes before any run is decoded or merged)
	// instead of the split-phase one. Output and deterministic statistics
	// are identical either way; it is the reference point of the package's
	// differential and overlap tests, which is why only they can set it.
	blockingExchange bool
	// spillPageSize pins the spill page and run-writer buffer size in bytes
	// (0 = the default, 256 KiB capped at a sixteenth of MemBudget). The
	// budget tests set it to spill at kilobyte scale.
	spillPageSize int
}

// PEOutput is one PE's fragment of the sorted result.
type PEOutput struct {
	// Strings is the locally sorted fragment (globally ordered by PE).
	// For PDMS runs without Reconstruct these are distinguishing prefixes.
	// The array is fresh, but the strings of the PE's own share — those
	// that never left it — alias the caller's input strings; received
	// ones are copies.
	Strings [][]byte
	// LCPs is the fragment's LCP array (nil for MS-simple and FKmerge).
	LCPs []int32
	// Origins is the provenance of each string (PDMS and hQuick).
	Origins []Origin
	// RunFile is the PE's sorted-run output file in budget mode
	// (Config.MemBudget > 0); Strings/LCPs/Origins are nil then. Stream it
	// with OpenRun or load it with ReadRunFile. The file lives under
	// Config.SpillDir until the caller removes it.
	RunFile string
	// RunCount is the number of items in RunFile (budget mode only).
	RunCount int64
}

// Stats summarizes one run's cost, the two metrics of Figures 4 and 5.
// Ten fields are measurements that vary run to run: the wall-clock
// fields OverlapMS, MaxOverlapMS, WallMS, WallTable, CPUMS, MergeWallMS and
// MergeCPUMS; and the budget-mode gauges PeakMemBytes, SpillBytesWritten
// and SpillBytesRead. ResentFrames is always zero. Every other field is
// deterministic: bit-identical across transports, seams and runs. Comparisons across backends must
// ignore the measured fields (zero them before ==, as the package tests
// do).
type Stats struct {
	Strings        int64   // global input size: the strings of every PE
	ModelTime      float64 // α-β model running time in seconds
	BytesSent      int64   // total payload bytes sent between PEs
	BytesPerString float64 // BytesSent / global input size
	MaxBytesSent   int64   // bottleneck send volume: max over PEs
	MaxBytesRecv   int64   // bottleneck receive volume: max over PEs
	MeanBytesRecv  float64 // average per-PE receive volume
	Messages       int64   // total point-to-point messages
	Work           int64   // total local work units (characters)
	Imbalance      float64 // max/mean per-PE work
	PhaseTable     string  // human-readable per-phase breakdown
	// WireBytes is the total post-codec volume that actually crossed the
	// fabric: equal to BytesSent without a codec, smaller when Config.Codec
	// compresses the frames. Deterministic for a fixed codec (frame
	// encodings are pure functions of their payloads).
	WireBytes int64
	// WireBytesPerString is WireBytes over the global input size — the
	// wire-side counterpart of BytesPerString.
	WireBytesPerString float64
	// CompressionRatio is WireBytes / BytesSent (1.0 means verbatim).
	CompressionRatio float64
	// OverlapMS is the total communication time (summed PE-milliseconds,
	// wall clock) the split-phase Step-3 exchange hid under Step-4 decode
	// work — time a bulk-synchronous seam would have spent waiting. As a
	// sum over PEs it can exceed WallMS; compare MaxOverlapMS to wall
	// spans instead.
	OverlapMS float64
	// MaxOverlapMS is the bottleneck overlap: the largest per-PE hidden
	// communication time in ms, directly comparable to WallMS.
	MaxOverlapMS float64
	// WallMS is the slowest PE's total wall-clock time in ms (measured, not
	// modeled).
	WallMS float64
	// WallTable is the human-readable per-phase breakdown of the measured
	// wall spans and overlap (nondeterministic, like OverlapMS/WallMS).
	WallTable string
	// Cores is the intra-PE work pool width the run executed with (the
	// maximum over PEs; they are normally identical). Deterministic: a
	// configuration echo, not a measurement.
	Cores int
	// CPUMS is the total worker-busy time in PE-milliseconds summed over
	// all PEs and phases — the measured CPU channel of the intra-PE pool.
	// CPUMS exceeding a phase's wall span proves parallel execution.
	// Nondeterministic, like WallMS; zero the field before cross-backend
	// comparisons.
	CPUMS float64
	// MergeWallMS is the merge phase's bottleneck wall-clock span in ms.
	// Nondeterministic, like WallMS.
	MergeWallMS float64
	// MergeCPUMS is the merge phase's summed worker-busy time in
	// PE-milliseconds: the landing's validating walks over the received
	// buckets and the Step-4 loser tree (hQuick: the placement decode), plus
	// the page writes under a memory budget. Its gap to MergeWallMS is the
	// time the merge phase spent waiting for buckets to arrive.
	// Nondeterministic, like CPUMS.
	MergeCPUMS float64
	// PeakMemBytes is the bottleneck peak of metered live bytes over PEs
	// in budget mode (resident run bytes + spill buffers); 0 without a budget.
	// Measured, not modeled: the exact peak depends on arrival order, so
	// zero the field before cross-backend comparisons like the other
	// wall-clock fields.
	PeakMemBytes int64
	// SpillBytesWritten is the machine-wide volume written to spill page
	// files; 0 without a budget or when the input fit in memory.
	// Nondeterministic, like PeakMemBytes.
	SpillBytesWritten int64
	// SpillBytesRead is the machine-wide volume paged back in from spill
	// files during the merge. Nondeterministic, like PeakMemBytes.
	SpillBytesRead int64
	// ResentFrames is always zero: the TCP transport is fail-stop and
	// never resends a frame. It is kept for the repository benchmark's
	// transport.resent_frames probe, which reads it.
	ResentFrames int64
}

// WriteSummary writes the human-readable run summary that dss-sort and
// dss-worker print to stderr. One shared copy — like the tuning flags —
// so the two binaries' output cannot drift apart: the CI smoke matrix
// greps these exact labels. machine describes the execution shape (e.g.
// "8 PEs" or "4 worker processes").
func (st Stats) WriteSummary(w io.Writer, algo Algorithm, machine string) {
	fmt.Fprintf(w, "algorithm:        %v on %s\n", algo, machine)
	fmt.Fprintf(w, "strings:          %d\n", st.Strings)
	fmt.Fprintf(w, "model time:       %.4f s\n", st.ModelTime)
	fmt.Fprintf(w, "bytes sent:       %d (%.1f per string)\n", st.BytesSent, st.BytesPerString)
	fmt.Fprintf(w, "wire bytes:       %d (%.1f per string, %.3fx raw)\n",
		st.WireBytes, st.WireBytesPerString, st.CompressionRatio)
	fmt.Fprintf(w, "messages:         %d\n", st.Messages)
	fmt.Fprintf(w, "work imbalance:   %.3f\n", st.Imbalance)
	fmt.Fprintf(w, "cores:            %d per PE (%.3f PE-ms worker CPU)\n", st.Cores, st.CPUMS)
	fmt.Fprintf(w, "wall time:        %.3f ms (slowest PE)\n", st.WallMS)
	fmt.Fprintf(w, "overlap:          %.3f ms max per PE, %.3f PE-ms summed (comm hidden under compute)\n",
		st.MaxOverlapMS, st.OverlapMS)
	fmt.Fprintf(w, "merge:            %.3f PE-ms worker CPU summed, %.3f ms wall (slowest PE)\n",
		st.MergeCPUMS, st.MergeWallMS)
	fmt.Fprintf(w, "spill:            %d bytes written, %d read back, %d peak live (0 = everything stayed in memory)\n",
		st.SpillBytesWritten, st.SpillBytesRead, st.PeakMemBytes)
	fmt.Fprintf(w, "%s", st.PhaseTable)
	fmt.Fprintf(w, "%s", st.WallTable)
}

// statsFromReport folds a machine-wide report into the public Stats in one
// pass over the PEs, each PE's phases folded once. Every field's reduction
// over PEs is written here and nowhere else: the volumes, counts and gauges
// are sums, the bottleneck fields maxima of per-PE totals, and the merge
// phase's wall span the maximum of that one phase. The two tables come
// from the report.
func statsFromReport(rep *stats.Report, n int64) Stats {
	st := Stats{
		Strings:          n,
		ModelTime:        rep.ModelTime(),
		BytesPerString:   rep.BytesPerString(n),
		PhaseTable:       rep.Table(),
		CompressionRatio: rep.CompressionRatio(),
		WallTable:        rep.WallTable(),
		Cores:            1,
		Imbalance:        1,
	}
	var recv, maxWork, wallNS, overlapNS, maxOverlapNS, cpuNS, mergeWallNS, mergeCPUNS int64
	for _, pe := range rep.PEs {
		var tot stats.PhaseCounters
		var peWall, peOverlap int64
		for ph, c := range pe.Phases {
			tot.BytesSent += c.BytesSent
			tot.BytesRecv += c.BytesRecv
			tot.Messages += c.Messages
			tot.Work += c.Work
			st.WireBytes += pe.Wire[ph].Sent
			peWall += pe.Wall[ph]
			peOverlap += pe.Overlap[ph]
			cpuNS += pe.CPU[ph]
		}
		st.BytesSent += tot.BytesSent
		st.MaxBytesSent = max(st.MaxBytesSent, tot.BytesSent)
		recv += tot.BytesRecv
		st.MaxBytesRecv = max(st.MaxBytesRecv, tot.BytesRecv)
		st.Messages += tot.Messages
		st.Work += tot.Work
		maxWork = max(maxWork, tot.Work)
		wallNS = max(wallNS, peWall)
		overlapNS += peOverlap
		maxOverlapNS = max(maxOverlapNS, peOverlap)
		mergeWallNS = max(mergeWallNS, pe.Wall[stats.PhaseMerge])
		mergeCPUNS += pe.CPU[stats.PhaseMerge]
		st.Cores = max(st.Cores, int(pe.Cores))
		st.PeakMemBytes = max(st.PeakMemBytes, pe.PeakLiveBytes)
		st.SpillBytesWritten += pe.SpillBytesWritten
		st.SpillBytesRead += pe.SpillBytesRead
	}
	if pes := float64(len(rep.PEs)); pes > 0 {
		st.MeanBytesRecv = float64(recv) / pes
		if st.Work > 0 {
			st.Imbalance = float64(maxWork) / (float64(st.Work) / pes)
		}
	}
	if n > 0 {
		st.WireBytesPerString = float64(st.WireBytes) / float64(n)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	st.OverlapMS, st.MaxOverlapMS, st.WallMS, st.CPUMS = ms(overlapNS), ms(maxOverlapNS), ms(wallNS), ms(cpuNS)
	st.MergeWallMS, st.MergeCPUMS = ms(mergeWallNS), ms(mergeCPUNS)
	return st
}

// Result is the outcome of a distributed sorting run.
type Result struct {
	PEs        []PEOutput
	Stats      Stats
	PrefixOnly bool // PDMS without Reconstruct: fragments hold prefixes
}

// Sort sorts the distributed string set inputs (inputs[pe] = PE pe's local
// strings) with the configured algorithm and returns the per-PE fragments
// and run statistics. Input arrays are not modified. Sort runs RunPE's
// per-rank routine on every rank of an in-process machine over the
// configured transport; holding every fragment, it resolves PDMS origins
// by lookup instead of by query. When one rank fails, the machine closes
// every endpoint so the others stop too, and Sort returns the first
// failure.
func Sort(inputs [][][]byte, cfg Config) (*Result, error) {
	p, err := machineSize(inputs, cfg)
	if err != nil {
		return nil, err
	}
	// Budget mode: the PEs stream their merged fragments into sorted-run
	// files inside one fresh directory under cfg.SpillDir. The directory
	// outlives Sort on success (the caller reads the run files and removes
	// it) but is torn down on every error path.
	var runDir string
	if cfg.MemBudget > 0 {
		if runDir, err = os.MkdirTemp(cfg.SpillDir, "dss-runs-"); err != nil {
			return nil, fmt.Errorf("stringsort: run dir: %w", err)
		}
	}
	runs, err := runMachine(inputs, cfg, p, func(c *comm.Comm, local [][]byte) (*PERun, error) {
		var path string
		if runDir != "" {
			path = runPath(runDir, c.Rank())
		}
		return runRank(c, local, cfg, path, nil, inputs)
	})
	if err != nil {
		if runDir != "" {
			os.RemoveAll(runDir)
		}
		return nil, err
	}
	out := &Result{PEs: make([]PEOutput, p), Stats: runs[0].Stats, PrefixOnly: runs[0].PrefixOnly}
	for pe, run := range runs {
		out.PEs[pe] = run.Output
	}
	return out, nil
}

// machineSize returns the PE count of a run of cfg on inputs.
func machineSize(inputs [][][]byte, cfg Config) (int, error) {
	p := cfg.P
	if p == 0 {
		p = len(inputs)
	}
	if p <= 0 {
		return 0, fmt.Errorf("stringsort: need at least one PE")
	}
	if len(inputs) > p {
		return 0, fmt.Errorf("stringsort: %d input fragments for %d PEs", len(inputs), p)
	}
	return p, nil
}

// runMachine runs rank on every PE of an in-process machine of p PEs built
// for cfg, each with its fragment of inputs, and returns the ranks' runs.
// When one rank fails, the machine closes every endpoint so the others stop
// too, and runMachine returns the first failure.
func runMachine(inputs [][][]byte, cfg Config, p int, rank func(c *comm.Comm, local [][]byte) (*PERun, error)) ([]*PERun, error) {
	machine, err := newMachine(p, cfg)
	if err != nil {
		return nil, err
	}
	machine.SetPool(par.New(cfg.Cores))
	runs := make([]*PERun, p)
	err = machine.Run(func(c *comm.Comm) error {
		var local [][]byte
		if c.Rank() < len(inputs) {
			local = inputs[c.Rank()]
		}
		run, err := rank(c, local)
		runs[c.Rank()] = run
		return err
	})
	// The machine is closed explicitly so transport-level failures the
	// algorithms never blocked on — a connection lost after the last
	// receive, a peer whose goodbye never came — surface in the run's
	// result.
	if cerr := machine.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("stringsort: transport: %w", cerr)
	}
	return runs, err
}

// newMachine builds the comm machine for the configured transport and
// decorations.
func newMachine(p int, cfg Config) (*comm.Machine, error) {
	var f transport.Fabric
	switch cfg.Transport {
	case TransportLocal:
		f = local.New(p)
	case TransportTCP:
		var err error
		tcfg := tcp.Config{ShutdownTimeout: cfg.NetTimeout}
		if len(cfg.TCPPeers) > 0 {
			if len(cfg.TCPPeers) != p {
				return nil, fmt.Errorf("stringsort: %d TCP peer addresses for %d PEs", len(cfg.TCPPeers), p)
			}
			f, err = tcp.NewFabricConfig(cfg.TCPPeers, tcfg)
		} else {
			f, err = tcp.NewLoopbackConfig(p, tcfg)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("stringsort: unknown transport %v", cfg.Transport)
	}
	d, err := decorate(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	return comm.NewOver(d), nil
}

// decorate wraps the fabric in the selected decorators: the chaos fault
// injector innermost, so injected delays and reorders disturb the
// post-codec frames actually on the wire, and the wire codec on top. Both names are parsed before anything is wrapped. "" disables
// chaos and "" or "none" the codec, leaving the raw hot path untouched;
// the comm layer then mirrors raw volume into the wire counters, so
// Stats.WireBytes is meaningful either way.
func decorate(f transport.Fabric, cfg Config) (transport.Fabric, error) {
	name, err := codec.Parse(cfg.Codec)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != "" {
		ccfg, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("stringsort: %w", err)
		}
		ccfg.Seed = cfg.ChaosSeed
		f = chaos.WrapFabric(f, ccfg)
	}
	if name == "none" {
		return f, nil
	}
	return codec.WrapFabric(f, codec.Config{Name: name})
}

// dispatch runs the configured algorithm on one PE, its fragment going
// into out, with the PE's spill pool sp under a budget (nil otherwise).
func dispatch(c *comm.Comm, ss [][]byte, cfg Config, sp *spill.Pool, out *core.Output) {
	sampling := partition.StringSampling
	if cfg.CharSampling {
		sampling = partition.CharSampling
	}
	seam := core.SeamOptions{
		BlockingExchange: cfg.blockingExchange, Spill: sp, Out: out,
	}
	switch cfg.Algorithm {
	case HQuick:
		core.HQuick(c, ss, core.HQOptions{GroupID: 1, Seed: cfg.Seed, TrackPhases: true, SeamOptions: seam})
	case FKMerge:
		core.FKMerge(c, ss, core.FKOptions{GroupID: 1, SeamOptions: seam})
	case MSSimple, MS:
		core.MergeSort(c, ss, core.MSOptions{
			LCP: cfg.Algorithm == MS, V: cfg.Oversampling, Sampling: sampling,
			TieBreak: cfg.TieBreak, RandomSampling: cfg.RandomSampling,
			GroupID: 1, Seed: cfg.Seed, SeamOptions: seam,
		})
	case PDMS, PDMSGolomb:
		core.PDMS(c, ss, core.PDMSOptions{
			Eps: cfg.Eps, Golomb: cfg.Algorithm == PDMSGolomb, V: cfg.Oversampling, Sampling: sampling,
			GroupID: 1, Seed: cfg.Seed, SeamOptions: seam,
		})
	default:
		panic(fmt.Sprintf("stringsort: unknown algorithm %v", cfg.Algorithm))
	}
}

// Estimate is the result of EstimateDN.
type Estimate struct {
	// AvgDist is the estimated average distinguishing prefix length D/n.
	AvgDist float64
	// MaxDist is the largest DIST seen in the sample (lower bound on d̂).
	MaxDist int
	// SampleSize is the number of strings sampled globally.
	SampleSize int
	// Suggested is the algorithm the estimate recommends: PDMS when the
	// distinguishing prefixes are a small fraction of the data, MS
	// otherwise (the Section VIII algorithm-selection use case).
	Suggested Algorithm
}

// EstimateDN approximates D/n of a distributed string set by gossiping a
// random sample of about sampleSize strings — the Section VIII technique
// for choosing a sorting strategy without sorting ("when D/n is small, we
// can use string sorting based algorithms"). Far cheaper than sorting:
// the communication volume is O(sampleSize · avg length) in total.
func EstimateDN(inputs [][][]byte, sampleSize int, seed uint64) (Estimate, error) {
	p := len(inputs)
	if p == 0 {
		return Estimate{}, fmt.Errorf("stringsort: need at least one PE")
	}
	machine := comm.New(p)
	results := make([]dupdetect.EstimateResult, p)
	var avgLen float64
	var total, n int64
	for _, in := range inputs {
		n += int64(len(in))
		for _, s := range in {
			total += int64(len(s))
		}
	}
	if n > 0 {
		avgLen = float64(total) / float64(n)
	}
	err := machine.Run(func(c *comm.Comm) error {
		results[c.Rank()] = dupdetect.EstimateD(c, inputs[c.Rank()], sampleSize, seed, 1)
		return nil
	})
	if err != nil {
		return Estimate{}, err
	}
	r := results[0]
	est := Estimate{AvgDist: r.AvgDist, MaxDist: r.MaxDist, SampleSize: r.SampleSize}
	// Prefix doubling pays off when the distinguishing prefixes are well
	// below the average string length; otherwise its overhead loses to
	// plain LCP compression (the Fig. 4 crossover).
	if avgLen > 0 && r.AvgDist < 0.5*avgLen {
		est.Suggested = PDMS
	} else {
		est.Suggested = MS
	}
	return est, nil
}

// SortStrings is a convenience wrapper for single-node callers: it
// distributes the strings round-robin over cfg.P PEs, sorts, and returns
// the concatenated sorted strings. PDMS results are reconstructed to full
// strings automatically, in RAM and under a memory budget alike.
func SortStrings(ss []string, cfg Config) ([]string, error) {
	if cfg.P <= 0 {
		cfg.P = 4
	}
	inputs := make([][][]byte, cfg.P)
	for i, s := range ss {
		pe := i % cfg.P
		inputs[pe] = append(inputs[pe], []byte(s))
	}
	cfg.Reconstruct = true
	res, err := Sort(inputs, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ss))
	if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
		defer os.RemoveAll(runDirOf(res.PEs[0].RunFile))
	}
	for _, pe := range res.PEs {
		if pe.RunFile != "" {
			// Budget mode: the fragment lives in a sorted-run file. PDMS run
			// files hold distinguishing prefixes; each origin names the full
			// string in inputs.
			err := func() error {
				rf, err := OpenRun(pe.RunFile)
				if err != nil {
					return err
				}
				defer rf.Close()
				for {
					s, _, o, ok, err := rf.Next()
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
					if res.PrefixOnly && rf.HasOrigins() {
						if s, err = lookupOrigin(inputs, o.PE, o.Index); err != nil {
							return err
						}
					}
					out = append(out, string(s))
				}
			}()
			if err != nil {
				return nil, err
			}
			continue
		}
		for _, s := range pe.Strings {
			out = append(out, string(s))
		}
	}
	return out, nil
}
