package stringsort

import (
	"fmt"
	"os"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/merge"
	"dss/internal/par"
	"dss/internal/stats"
	"dss/internal/trace"
	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
)

// Reserved tag namespaces of the run's coordination collectives. The
// algorithms use GroupID 1 (and neighbors); reconstruction uses 900 and
// validation 901–902; the stats exchange stays clear of all of them.
const (
	statsGID = 980
	// traceGID gathers the trace buffers AFTER the stats exchange, so its
	// traffic never reaches the reported deterministic counters
	// (AllgatherReport snapshots on entry).
	traceGID = 982
)

// PERun is one PE's share of a distributed sorting run executed with RunPE.
type PERun struct {
	// Output is this PE's fragment of the globally sorted sequence.
	Output PEOutput
	// Stats are the machine-wide run statistics, identical on every PE
	// (the per-PE counters are exchanged after sorting; that exchange is
	// excluded from the counters, so the numbers are bit-identical to an
	// in-process Sort of the same input).
	Stats Stats
	// PrefixOnly reports that Output.Strings holds distinguishing prefixes
	// (PDMS without Reconstruct).
	PrefixOnly bool
}

// RunPE executes one PE's share of a distributed sort in SPMD style: every
// rank of the fabric calls RunPE with the same Config and its local input
// fragment, typically from its own OS process over a TCP endpoint
// (transport/tcp.ConnectConfig; see cmd/dss-worker). Sort(inputs, cfg) runs the
// same per-rank routine on every rank of an in-process machine, with
// local = inputs[rank]; the two differ only where a rank holding just its
// own fragment must: PDMS origins are resolved with core.Reconstruct, one
// query all-to-all each way, instead of by lookup.
//
// The caller keeps ownership of the endpoint: RunPE does not close it, so
// several runs can reuse one fabric. Config.P must be zero or equal the
// fabric size; Config.Transport and Config.TCPPeers are ignored (the
// endpoint already embodies that choice). Config.Codec is honored: RunPE
// decorates the endpoint with the wire codec exactly like Sort decorates
// its fabric, so every rank of an SPMD job must be launched with the same
// codec (the frames are self-describing, but mixed configs would compress
// only part of the traffic). Under a memory budget each rank makes its own
// run directory under Config.SpillDir; it is removed on every error path.
// A failure that panics inside the sort — a lost connection, a peer that
// closed its endpoint, a corrupt bucket — comes back as the error, naming
// this rank and the transport's cause.
func RunPE(t transport.Transport, local [][]byte, cfg Config) (run *PERun, err error) {
	if cfg.P != 0 && cfg.P != t.P() {
		return nil, fmt.Errorf("stringsort: Config.P=%d but fabric has %d PEs", cfg.P, t.P())
	}
	// Chaos sits directly on the backend, under the codec, so injected
	// faults hit the exact post-codec wire frames — the stacking order Sort
	// builds with decorate. RunPE owns the decorator (the caller owns only
	// the inner endpoint), so it must be drained on every return path: a
	// delayed frame still queued when the caller closes the endpoint would
	// be delivered into a closed transport.
	if cfg.Chaos != "" {
		ccfg, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, err
		}
		ccfg.Seed = cfg.ChaosSeed
		ce := chaos.Wrap(t, ccfg)
		defer ce.Drain()
		t = ce
	}
	if name, err := codec.Parse(cfg.Codec); err != nil {
		return nil, err
	} else if name != "none" {
		wrapped, err := codec.Wrap(t, codec.Config{Name: name})
		if err != nil {
			return nil, err
		}
		t = wrapped
	}
	c := comm.NewComm(t)
	c.SetPool(par.New(cfg.Cores))
	var path string
	if cfg.MemBudget > 0 {
		runDir, err := os.MkdirTemp(cfg.SpillDir, "dss-runs-")
		if err != nil {
			return nil, fmt.Errorf("stringsort: run dir: %w", err)
		}
		path = runPath(runDir, c.Rank())
	}
	// Recovered the way Machine.Run recovers a rank, without the stack: the
	// cause names what failed.
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("stringsort: PE %d failed: %v", c.Rank(), r)
		}
		if err != nil && path != "" {
			os.RemoveAll(runDirOf(path))
		}
	}()
	return runRank(c, local, cfg, path, nil, nil)
}

// runRank is the per-rank routine of Sort, RunPE and SortToFile. Every rank
// runs it collectively with its local input: choose the Output — the
// PEOutput arrays in RAM (arena), the sorted-run file at path (Sort and
// RunPE under a budget) or the rank's region of lines (SortToFile) — sort
// into it, snapshot and exchange the statistics, reconstruct RunPE's PDMS
// strings when cfg.Reconstruct asks for it, validate, and gather the
// trace, which rank 0 writes. inputs is every PE's input when all of them
// live in this address space — PDMS origins then resolve by lookup, in the
// arena — and nil when this rank holds only its own.
func runRank(c *comm.Comm, local [][]byte, cfg Config, path string, lines *lineFile, inputs [][][]byte) (*PERun, error) {
	if cfg.Trace != "" || trace.LiveOn() {
		c.SetTrace(trace.New(c.Rank(), 0))
	}
	prefixes := cfg.Algorithm == PDMS || cfg.Algorithm == PDMSGolomb
	inRAM := path == "" && lines == nil
	// A line sink writes the input line behind each PDMS prefix, and in RAM
	// Reconstruct replaces the prefixes by their strings; a run file keeps
	// the prefixes with their origins for the caller to resolve.
	run := &PERun{PrefixOnly: prefixes && lines == nil && !(inRAM && cfg.Reconstruct)}
	// Full strings replacing prefixes have no LCPs the merge knows.
	hasLCP := runOpts(cfg.Algorithm).LCP && (!prefixes || run.PrefixOnly)
	var chk *streamCheck
	if cfg.Validate {
		chk = &streamCheck{hasLCP: hasLCP, multiset: !run.PrefixOnly}
	}
	// Sort's PDMS with Reconstruct resolves the origins in the arena.
	var lookup [][][]byte
	if inRAM && prefixes && cfg.Reconstruct {
		lookup = inputs
	}
	if err := sortPE(c, local, cfg, path, lines, run, hasLCP, lookup, chk); err != nil {
		return nil, err
	}

	// Snapshot and exchange the sorting statistics before any
	// post-processing communication (reconstruction, validation, trace).
	// AllgatherReport snapshots each PE's counters on entry, so its own
	// traffic is excluded.
	rep, n := comm.AllgatherReport(c, stats.DefaultModel(), statsGID, int64(len(local)))
	// Every rank holds the same report. In one address space (Sort, inputs
	// non-nil) rank 0's flattened copy serves them all.
	if inputs == nil || c.Rank() == 0 {
		run.Stats = statsFromReport(rep, n)
	}

	out := &run.Output
	if inRAM && prefixes && cfg.Reconstruct && inputs == nil {
		sats := make([]uint64, len(out.Origins))
		for i, o := range out.Origins {
			sats[i] = uint64(o.PE)<<32 | uint64(o.Index)
		}
		out.Strings = core.Reconstruct(c, sats, local, 900)
	}

	// In RAM the check reads the finished arrays, exactly what the caller
	// receives; a streaming Output has fed it every item it wrote.
	if chk != nil {
		if inRAM {
			for i, s := range out.Strings {
				var h int32
				if hasLCP {
					h = out.LCPs[i]
				}
				chk.add(s, h)
			}
		}
		if err := chk.finish(c, local); err != nil {
			return nil, err
		}
	}

	// Gather and export the timeline last: strictly after AllgatherReport
	// (so the gather's traffic never reaches the reported deterministic
	// counters) and after reconstruction and validation so those rounds
	// appear on it. Collective — every rank participates, rank 0 writes
	// the file with all buffers aligned to its clock.
	if cfg.Trace != "" {
		bufs := comm.GatherTrace(c, c.Trace(), traceGID)
		if c.Rank() == 0 {
			if err := trace.WriteFile(cfg.Trace, bufs); err != nil {
				return nil, fmt.Errorf("stringsort: trace: %w", err)
			}
		}
	}
	return run, nil
}

// arena is the in-RAM Output of Sort and RunPE: it builds dst's Strings,
// LCPs (if lcp) and Origins (if origins), each sized exactly when the
// merge opens it. A stable run's strings are kept as they are — the PE's
// own ones alias the caller's input — and the received ones are copied
// back to back into one byte array exactly as long as their characters.
// With lookup set (Sort's PDMS with Reconstruct) an item is instead the
// input string its origin names, looked up as it arrives.
func arena(dst *PEOutput, lcp, origins bool, lookup [][][]byte) *core.Output {
	return &core.Output{Open: func(runs []core.Extent) (merge.Sink, error) {
		var n, chars int64
		for _, r := range runs {
			n += r.N
			if !r.Stable && lookup == nil {
				chars += r.Chars
			}
		}
		if n > 0 {
			dst.Strings = make([][]byte, n)
			if lcp {
				dst.LCPs = make([]int32, n)
			}
			if origins {
				dst.Origins = make([]Origin, n)
			}
		}
		strs, lcps, origs := dst.Strings, dst.LCPs, dst.Origins
		buf := make([]byte, 0, chars)
		i := 0
		return func(run int, s []byte, h int32, sat uint64) error {
			if lookup != nil {
				var err error
				if s, err = lookupOrigin(lookup, int(sat>>32), int(uint32(sat))); err != nil {
					return err
				}
			} else if !runs[run].Stable {
				off := len(buf)
				buf = append(buf, s...)
				s = buf[off:len(buf):len(buf)]
			}
			strs[i] = s
			if lcps != nil {
				lcps[i] = h
			}
			if origs != nil {
				origs[i] = satOrigin(sat)
			}
			i++
			return nil
		}, nil
	}}
}

// satOrigin unpacks a merge satellite word, PE in its high 32 bits.
func satOrigin(sat uint64) Origin { return Origin{PE: int(sat >> 32), Index: int(uint32(sat))} }

// lookupOrigin returns the input string a PDMS origin names: inputs[pe][index].
func lookupOrigin(inputs [][][]byte, pe, index int) ([]byte, error) {
	if pe < 0 || pe >= len(inputs) || index < 0 || index >= len(inputs[pe]) {
		return nil, fmt.Errorf("stringsort: origin (PE %d, index %d) names no input string", pe, index)
	}
	return inputs[pe][index], nil
}
