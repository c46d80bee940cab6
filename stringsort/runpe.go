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
// validation 901–902 as in Sort; the stats exchange stays clear of both.
const (
	statsGID  = 980
	extentGID = 981
	// traceGID gathers the per-process trace buffers AFTER the stats
	// exchange, so its traffic never reaches the reported deterministic
	// counters (AllgatherReport snapshots on entry).
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
// (transport/tcp.Connect; see cmd/dss-worker). It is the multi-process
// counterpart of Sort — Sort(inputs, cfg) is equivalent to RunPE on every
// rank of an in-process fabric with local = inputs[rank].
//
// The caller keeps ownership of the endpoint: RunPE does not close it, so
// several runs can reuse one fabric. Config.P must be zero or equal the
// fabric size; Config.Transport and Config.TCPPeers are ignored (the
// endpoint already embodies that choice). Config.Codec is honored: RunPE
// decorates the endpoint with the wire codec exactly like Sort decorates
// its fabric, so every rank of an SPMD job must be launched with the same
// codec (the frames are self-describing, but mixed configs would compress
// only part of the traffic).
func RunPE(t transport.Transport, local [][]byte, cfg Config) (*PERun, error) {
	if cfg.P != 0 && cfg.P != t.P() {
		return nil, fmt.Errorf("stringsort: Config.P=%d but fabric has %d PEs", cfg.P, t.P())
	}
	// Chaos sits directly on the backend, under the codec, so injected
	// faults hit the exact post-codec wire frames — the same stacking order
	// Sort builds via wrapChaos/wrapCodec. RunPE owns the decorator (the
	// caller owns only the inner endpoint), so it must be drained on every
	// return path: a delayed frame still queued when the caller closes the
	// endpoint would be delivered into a closed transport.
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
		wrapped, err := codec.Wrap(t, codec.Config{Name: name, MinSize: cfg.CodecMinSize})
		if err != nil {
			return nil, err
		}
		t = wrapped
	}
	c := comm.NewComm(t)
	c.SetPool(par.New(cfg.Cores))
	if cfg.Trace != "" || trace.LiveOn() {
		c.SetTrace(trace.New(c.Rank(), cfg.TraceCapacity))
	}
	// Budget mode: this rank streams its merged fragment to a sorted-run
	// file in a fresh directory under cfg.SpillDir (each worker process
	// makes its own). The directory survives on success for the caller to
	// read; every error path below tears it down.
	var res core.Result
	var runDir string
	if cfg.MemBudget > 0 {
		var err error
		runDir, err = os.MkdirTemp(cfg.SpillDir, "dss-runs-")
		if err != nil {
			return nil, fmt.Errorf("stringsort: run dir: %w", err)
		}
		res, err = runBudget(c, local, cfg, runPath(runDir, c.Rank()))
		if err != nil {
			os.RemoveAll(runDir)
			return nil, err
		}
	} else {
		res = dispatch(c, local, cfg, nil, nil)
	}

	// Snapshot and exchange the sorting statistics before any
	// post-processing communication (validation, reconstruction), exactly
	// like Sort. AllgatherReport snapshots each PE's counters on entry, so
	// its own traffic is excluded.
	model := stats.DefaultModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	rep := comm.AllgatherReport(c, model, statsGID)
	g := comm.NewGroup(c, comm.WorldRanks(t.P()), extentGID)
	_, n := g.ExscanUint64(uint64(len(local)))
	st := statsFromReport(rep, int64(n))

	prefixOnly := res.PrefixOnly
	// This rank holds only its own fragment, so origins on other ranks are
	// resolved by the collective query, not by the lookup Sort does.
	if prefixOnly && cfg.Reconstruct && cfg.MemBudget == 0 {
		res.Strings = core.Reconstruct(c, res, local, 900)
		res.LCPs = nil // prefix LCPs do not apply to full strings
		res.PrefixOnly = false
		prefixOnly = false
	}

	if cfg.Validate {
		if cfg.MemBudget > 0 {
			if err := validateRun(c, runPath(runDir, c.Rank()), local, prefixOnly); err != nil {
				os.RemoveAll(runDir)
				return nil, err
			}
		} else {
			if err := verify.SortednessLCP(c, res.Strings, res.LCPs, 901); err != nil {
				return nil, err
			}
			if !prefixOnly {
				if err := verify.Multiset(c, local, res.Strings, 902); err != nil {
					return nil, err
				}
			}
		}
	}

	// Gather and export the timeline last: strictly after AllgatherReport
	// (so the gather's traffic never reaches the reported deterministic
	// counters) and after validation/reconstruction so those rounds appear
	// on it. Collective — every rank participates, rank 0 writes the file
	// with all buffers aligned to its clock.
	if cfg.Trace != "" {
		bufs := comm.GatherTrace(c, c.Trace(), traceGID)
		if c.Rank() == 0 {
			if err := trace.WriteFile(cfg.Trace, bufs); err != nil {
				return nil, fmt.Errorf("stringsort: trace: %w", err)
			}
		}
	}

	out := &PERun{Stats: st, PrefixOnly: prefixOnly}
	out.Output = PEOutput{Strings: res.Strings, LCPs: res.LCPs}
	if res.Origins != nil {
		out.Output.Origins = make([]Origin, len(res.Origins))
		for i, o := range res.Origins {
			out.Output.Origins[i] = Origin{PE: int(o.PE), Index: int(o.Index)}
		}
	}
	if cfg.MemBudget > 0 {
		out.Output.RunFile = runPath(runDir, c.Rank())
		out.Output.RunCount = res.Drained
	}
	return out, nil
}
