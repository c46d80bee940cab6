package stringsort

import (
	"fmt"
	"os"

	"dss/internal/comm"
	"dss/internal/core"
	"dss/internal/par"
	"dss/internal/stats"
	"dss/internal/trace"
	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
	"dss/internal/verify"
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
func RunPE(t transport.Transport, local [][]byte, cfg Config) (*PERun, error) {
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
	run, err := runRank(c, local, cfg, path, nil)
	if err != nil && path != "" {
		os.RemoveAll(runDirOf(path))
	}
	return run, err
}

// runRank is the per-rank routine of Sort and RunPE. Every rank runs it
// collectively with its local input: sort (streaming the fragment to the
// run file at path under a budget, path "" otherwise), snapshot and
// exchange the statistics, resolve PDMS origins when cfg.Reconstruct asks
// for it, validate, and gather the trace, which rank 0 writes. inputs is
// every PE's input when all of them live in this address space — origins
// then resolve by lookup — and nil when this rank holds only its own.
func runRank(c *comm.Comm, local [][]byte, cfg Config, path string, inputs [][][]byte) (*PERun, error) {
	if cfg.Trace != "" || trace.LiveOn() {
		c.SetTrace(trace.New(c.Rank(), 0))
	}
	var res core.Result
	if path != "" {
		var err error
		if res, err = runBudget(c, local, cfg, path); err != nil {
			return nil, err
		}
	} else {
		res = dispatch(c, local, cfg, nil, nil)
	}

	// Snapshot and exchange the sorting statistics before any
	// post-processing communication (reconstruction, validation, trace).
	// AllgatherReport snapshots each PE's counters on entry, so its own
	// traffic is excluded.
	rep, n := comm.AllgatherReport(c, stats.DefaultModel(), statsGID, int64(len(local)))
	run := &PERun{PrefixOnly: res.PrefixOnly}
	// Every rank holds the same report. In one address space (Sort, inputs
	// non-nil) rank 0's flattened copy serves them all.
	if inputs == nil || c.Rank() == 0 {
		run.Stats = statsFromReport(rep, n)
	}

	// Under a budget the fragment lives in the run file, whose items carry
	// each prefix's origin for the caller to resolve.
	if res.PrefixOnly && cfg.Reconstruct && path == "" {
		if inputs == nil {
			res.Strings = core.Reconstruct(c, res, local, 900)
		} else {
			full := make([][]byte, len(res.Origins))
			for i, o := range res.Origins {
				s, err := lookupOrigin(inputs, int(o.PE), int(o.Index))
				if err != nil {
					return nil, err
				}
				full[i] = s
			}
			res.Strings = full
		}
		res.LCPs = nil // prefix LCPs do not apply to full strings
		run.PrefixOnly = false
	}

	if cfg.Validate {
		if err := validate(c, res, local, path, run.PrefixOnly); err != nil {
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

	run.Output = PEOutput{Strings: res.Strings, LCPs: res.LCPs, RunFile: path, RunCount: res.Drained}
	if res.Origins != nil {
		run.Output.Origins = make([]Origin, len(res.Origins))
		for i, o := range res.Origins {
			run.Output.Origins[i] = Origin{PE: int(o.PE), Index: int(o.Index)}
		}
	}
	return run, nil
}

// validate runs the distributed verifier over the rank's fragment: local
// order and the LCP array in one fused pass (algorithms without LCP output
// get the plain order check), then multiset preservation unless the
// fragment holds prefixes. A budgeted fragment streams from its run file
// with the same collective schedule.
func validate(c *comm.Comm, res core.Result, local [][]byte, path string, prefixOnly bool) error {
	if path != "" {
		return validateRun(c, path, local, prefixOnly)
	}
	if err := verify.SortednessLCP(c, res.Strings, res.LCPs, 901); err != nil {
		return err
	}
	if prefixOnly {
		return nil
	}
	return verify.Multiset(c, local, res.Strings, 902)
}

// lookupOrigin returns the input string a PDMS origin names: inputs[pe][index].
func lookupOrigin(inputs [][][]byte, pe, index int) ([]byte, error) {
	if pe < 0 || pe >= len(inputs) || index < 0 || index >= len(inputs[pe]) {
		return nil, fmt.Errorf("stringsort: origin (PE %d, index %d) names no input string", pe, index)
	}
	return inputs[pe][index], nil
}
