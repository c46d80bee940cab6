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

// peRun is one PE's share of a run of Sort or SortToFile.
type peRun struct {
	// Output is this PE's fragment of the globally sorted sequence (Sort).
	Output PEOutput
	// Stats are the machine-wide run statistics, identical on every PE.
	Stats Stats
	// PrefixOnly reports that Output holds distinguishing prefixes (PDMS
	// without Reconstruct, or under a budget).
	PrefixOnly bool
}

// RunPE executes one PE's share of a distributed sort in SPMD style: every
// rank of the fabric calls RunPE with the same Config and its local input
// fragment, typically from its own OS process over a TCP endpoint
// (transport/tcp.ConnectConfig; see cmd/dss-worker). It writes the rank's
// fragment of the globally sorted sequence into out as lines, each followed
// by '\n', and returns the run's statistics, identical on every rank and
// to Sort's: the per-PE counters are exchanged after sorting, and that
// exchange is excluded from them. Concatenating the ranks' outputs in rank
// order gives what SortToFile writes for the same input.
//
// RunPE runs the per-rank routine of SortToFile, through the same line
// Output, in RAM and under Config.MemBudget alike. For PDMS, as there, the
// merge keeps only each prefix's origin, and once the statistics are taken
// one step turns the origins into lines; the one difference is that a rank
// holds only its own lines, so core.Reconstruct fetches them from the
// origin ranks (one query all-to-all each way, outside the statistics).
// The fetched lines are held in RAM, outside the meter, while they are
// written. Config.Reconstruct is moot.
//
// The lines start at out's current offset, which is left at their end. An
// out that takes no positioned writes — a pipe, a terminal, a file opened
// for appending — receives them through an unlinked temporary file under
// Config.SpillDir, as in SortToFile.
//
// The caller keeps ownership of the endpoint: RunPE does not close it, so
// several runs can reuse one fabric. Config.P must be zero or equal the
// fabric size; Config.Transport and Config.TCPPeers are ignored (the
// endpoint already embodies that choice). Config.Codec is honored: RunPE
// decorates the endpoint with the wire codec exactly like Sort decorates
// its fabric, so every rank of an SPMD job must be launched with the same
// codec (the frames are self-describing, but mixed configs would compress
// only part of the traffic). A failure that panics inside the sort — a
// lost connection, a peer that closed its endpoint, a corrupt bucket —
// comes back as the error, naming this rank and the transport's cause.
func RunPE(t transport.Transport, local [][]byte, cfg Config, out *os.File) (st Stats, err error) {
	if cfg.P != 0 && cfg.P != t.P() {
		return Stats{}, fmt.Errorf("stringsort: Config.P=%d but fabric has %d PEs", cfg.P, t.P())
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
			return Stats{}, err
		}
		ccfg.Seed = cfg.ChaosSeed
		ce := chaos.Wrap(t, ccfg)
		defer ce.Drain()
		t = ce
	}
	if name, err := codec.Parse(cfg.Codec); err != nil {
		return Stats{}, err
	} else if name != "none" {
		wrapped, err := codec.Wrap(t, codec.Config{Name: name})
		if err != nil {
			return Stats{}, err
		}
		t = wrapped
	}
	c := comm.NewComm(t)
	c.SetPool(par.New(cfg.Cores))
	lines, err := newLineFile(out, cfg.SpillDir, c.Rank(), 1)
	if err != nil {
		return Stats{}, err
	}
	defer lines.close()
	// Recovered the way Machine.Run recovers a rank, without the stack: the
	// cause names what failed.
	defer func() {
		if r := recover(); r != nil {
			st, err = Stats{}, fmt.Errorf("stringsort: PE %d failed: %v", c.Rank(), r)
		}
	}()
	run, err := runRank(c, local, cfg, "", lines, nil)
	if err != nil {
		return Stats{}, err
	}
	return run.Stats, lines.finish()
}

// runRank is the per-rank routine of Sort, RunPE and SortToFile. Every rank
// runs it collectively with its local input: choose the Output — the
// PEOutput arrays in RAM (arena), the sorted-run file at path (Sort under
// a budget), the rank's region of lines (SortToFile and RunPE) or a PDMS
// fragment's origin column — sort into it, snapshot and exchange the
// statistics, turn the origins into lines, validate, and gather the trace,
// which rank 0 writes. inputs is
// every PE's input when all of them live in this address space — PDMS
// origins then resolve by lookup — and nil when this rank holds only its
// own.
func runRank(c *comm.Comm, local [][]byte, cfg Config, path string, lines *lineFile, inputs [][][]byte) (*peRun, error) {
	if cfg.Trace != "" || trace.LiveOn() {
		c.SetTrace(trace.New(c.Rank(), 0))
	}
	prefixes := cfg.Algorithm == PDMS || cfg.Algorithm == PDMSGolomb
	inRAM := path == "" && lines == nil
	// A PDMS fragment whose lines are wanted — always in a line file, in
	// RAM with Reconstruct — leaves the merge as its origin column, which
	// resolve turns into lines once the statistics are taken; a run file
	// keeps the prefixes with their origins for the caller to resolve.
	var sats *[]uint64
	if prefixes && (lines != nil || inRAM && cfg.Reconstruct) {
		sats = new([]uint64)
	}
	run := &peRun{PrefixOnly: prefixes && sats == nil}
	// Full strings replacing prefixes have no LCPs the merge knows.
	hasLCP := runOpts(cfg.Algorithm).LCP && sats == nil
	var chk *streamCheck
	if cfg.Validate {
		chk = &streamCheck{hasLCP: hasLCP, multiset: !run.PrefixOnly}
	}
	if err := sortPE(c, local, cfg, path, lines, run, sats, chk); err != nil {
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

	if sats != nil {
		if err := resolve(c, *sats, local, inputs, lines, &run.Output, chk); err != nil {
			return nil, fmt.Errorf("stringsort: output: %w", err)
		}
	}

	// In RAM the check reads the finished arrays, exactly what the caller
	// receives; a streaming Output has fed it every item it wrote.
	if chk != nil {
		if inRAM {
			out := &run.Output
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

// resolve is the one step that turns a PE's PDMS origin column sats into
// the lines its origins name: by a checked lookup (lookupOrigin) when every
// input lies in this address space (inputs non-nil), fetched from the
// origin ranks by core.Reconstruct otherwise. It hands them to the PE's
// region of lines or, for Sort, to out's Strings and Origins, each exactly
// as long as sats. Collective when inputs is nil.
func resolve(c *comm.Comm, sats []uint64, local [][]byte, inputs [][][]byte, lines *lineFile, out *PEOutput, chk *streamCheck) error {
	if inputs == nil {
		return core.Reconstruct(c, sats, local, 900, func(got [][]byte) error {
			return lines.writeLines(c, len(got), func(i int) ([]byte, error) { return got[i], nil }, chk)
		})
	}
	line := func(i int) ([]byte, error) { return lookupOrigin(inputs, satOrigin(sats[i])) }
	if lines != nil {
		return lines.writeLines(c, len(sats), line, chk)
	}
	if len(sats) > 0 {
		out.Strings, out.Origins = make([][]byte, len(sats)), make([]Origin, len(sats))
	}
	for i, sat := range sats {
		var err error
		if out.Strings[i], err = line(i); err != nil {
			return err
		}
		out.Origins[i] = satOrigin(sat)
	}
	return nil
}

// arena is the in-RAM Output of Sort: it builds dst's Strings,
// LCPs (if lcp) and Origins (if origins), each sized exactly when the
// merge opens it. A stable run's strings are kept as they are — the PE's
// own ones alias the caller's input — and the received ones are copied
// back to back into one byte array exactly as long as their characters.
func arena(dst *PEOutput, lcp, origins bool) *core.Output {
	return &core.Output{Open: func(runs []core.Extent) (merge.Sink, error) {
		var n, chars int64
		for _, r := range runs {
			n += r.N
			if !r.Stable {
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
			if !runs[run].Stable {
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

// originColumn is the Output of a PDMS fragment whose lines are wanted: it
// keeps only each item's origin word, in *sats, sized exactly when the
// merge opens it.
func originColumn(sats *[]uint64) *core.Output {
	return &core.Output{Open: func(runs []core.Extent) (merge.Sink, error) {
		var n int64
		for _, r := range runs {
			n += r.N
		}
		*sats = make([]uint64, 0, n)
		return func(_ int, _ []byte, _ int32, sat uint64) error {
			*sats = append(*sats, sat)
			return nil
		}, nil
	}}
}

// satOrigin unpacks a merge satellite word, PE in its high 32 bits.
func satOrigin(sat uint64) Origin { return Origin{PE: int(sat >> 32), Index: int(uint32(sat))} }

// lookupOrigin returns the input string origin o names: inputs[o.PE][o.Index].
func lookupOrigin(inputs [][][]byte, o Origin) ([]byte, error) {
	if o.PE < 0 || o.PE >= len(inputs) || o.Index < 0 || o.Index >= len(inputs[o.PE]) {
		return nil, fmt.Errorf("stringsort: origin (PE %d, index %d) names no input string", o.PE, o.Index)
	}
	return inputs[o.PE][o.Index], nil
}
