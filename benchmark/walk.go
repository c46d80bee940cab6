package main

import (
	"fmt"
	"os"
	"time"

	"dss/internal/comm"
	"dss/internal/input"
	"dss/internal/merge"
	"dss/internal/partition"
	"dss/internal/strsort"
	"dss/internal/transport"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
	"dss/internal/verify"
	"dss/internal/wire"
	"dss/stringsort"
)

// peState is what one PE carries from one step of the walk to the next.
type peState struct {
	local  [][]byte // the PE's strings, sorted by step 1
	lcp    []int32
	off    []int            // bucket boundaries in local
	parts  [][]byte         // encoded buckets, one per destination
	recv   [][]byte         // encoded runs, one per source
	runs   []merge.Sequence // decoded runs
	merged merge.Sequence
}

// metricSet collects the per-layer metrics of a traced run in emission order.
type metricSet []metric

func (ms *metricSet) add(name, unit string, value float64) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: value})
}

func (e *env) newFabric() (transport.Fabric, error) {
	if e.w.transport == stringsort.TransportTCP {
		return tcp.NewLoopback(pes)
	}
	return local.New(pes), nil
}

// walked is what the walk leaves for the side probes.
type walked struct {
	machine *comm.Machine
	pe      []peState
	n       int64         // strings
	wall    time.Duration // steps 1 to 4: the bare composition of the sort
}

// traffic reads the machine-wide bytes and messages sent so far; the
// difference across a step is the layer's communication.
func traffic(m *comm.Machine) (bytes, messages int64) {
	rep := m.Report()
	return rep.TotalBytesSent(), rep.TotalMessages()
}

// layerWalk composes algorithm MS from the layers' public entry points on the
// workload's input file and fabric, with a span and a work count around every
// call: read the input, walk steps 1 to 4, verify. The walk is the bare
// composition the real orchestrator (internal/core) is compared against, and
// it never goes through internal/core.
func (e *env) layerWalk(rec *recorder, root int, ms *metricSet) (*walked, error) {
	f, err := e.newFabric()
	if err != nil {
		return nil, err
	}
	m := comm.NewOver(f)
	wk := &walked{machine: m, pe: make([]peState, pes)}

	// input: read the file the way dss-sort does, through a counting reader.
	id := rec.open(root, "input.read", -1)
	file, err := os.Open(e.inFile)
	if err != nil {
		return wk, err
	}
	cr := &countReader{r: file}
	lr := input.NewLineReader(cr, 0)
	for {
		chunk, err := lr.Next()
		if err != nil {
			file.Close()
			return wk, fmt.Errorf("input: %w", err)
		}
		if chunk == nil {
			break
		}
		for _, line := range chunk {
			pe := &wk.pe[wk.n%pes]
			pe.local = append(pe.local, line)
			wk.n++
		}
	}
	file.Close()
	readDur := rec.close(id, cr.n, "bytes")
	ms.add("input.read_ms", "ms", millis(readDur))
	ms.add("input.read_mb_per_s", "MB/s", perSecond(cr.n, readDur))
	if wk.n != e.want.count {
		return wk, fmt.Errorf("input: read %d lines, wrote %d", wk.n, e.want.count)
	}
	n := float64(wk.n)

	// The walk proper is the part stringsort.Sort also times: steps 1 to 4.
	walk := rec.open(root, "walk", -1)

	// Step 1: local sort with LCP array.
	st, err := rec.step(m, walk, "strsort.sort", "chars", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		var work int64
		pe.lcp, work = strsort.SortLCP(pe.local, nil)
		return work, nil
	})
	if err != nil {
		return wk, err
	}
	ms.add("strsort.busy_ms", "ms", millis(st.maxBusy()))
	ms.add("strsort.mchars_per_s", "Mchars/s", st.rate())
	ms.add("strsort.work_chars_per_str", "chars/str", float64(st.sumWork())/n)

	// Step 2: splitters by regular sampling (sample sorted centrally: the
	// distributed sample sort lives in internal/core) and bucket boundaries.
	bytes0, _ := traffic(m)
	st, err = rec.step(m, walk, "partition.split", "strings", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		splitters := partition.SelectSplitters(c, pe.local, partition.Options{
			V: max(2*pes-1, 15), Seed: uint64(e.opt.seed), GroupID: 2,
		})
		pe.off = partition.Buckets(pe.local, splitters)
		return int64(len(pe.local)), nil
	})
	if err != nil {
		return wk, err
	}
	bytes1, msgs1 := traffic(m)
	ms.add("partition.busy_ms", "ms", millis(st.maxBusy()))
	ms.add("partition.bytes_per_str", "B/str", float64(bytes1-bytes0)/n)

	// Step 3a: LCP-compressed encoding of the p buckets.
	enc, err := rec.step(m, walk, "wire.encode", "bytes", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		pe.parts = make([][]byte, pes)
		var total int64
		for dst := range pe.parts {
			ss, lcps := pe.local[pe.off[dst]:pe.off[dst+1]], pe.lcp[pe.off[dst]:pe.off[dst+1]]
			buf := make([]byte, 0, wire.StringsLCPSize(ss, lcps))
			pe.parts[dst] = wire.AppendStringsLCP(buf, ss, lcps)
			total += int64(len(pe.parts[dst]))
		}
		return total, nil
	})
	if err != nil {
		return wk, err
	}

	// Step 3b: the all-to-all exchange over the workload's fabric.
	st, err = rec.step(m, walk, "comm.alltoallv", "bytes", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		pe.recv = comm.NewGroup(c, comm.WorldRanks(pes), 8).Alltoallv(pe.parts)
		var total int64
		for _, msg := range pe.recv {
			total += int64(len(msg))
		}
		return total, nil
	})
	if err != nil {
		return wk, err
	}
	_, msgs2 := traffic(m)
	ms.add("comm.alltoallv_ms", "ms", millis(st.maxBusy()))
	ms.add("comm.alltoallv_mb_per_s", "MB/s", perSecond(st.sumWork(), st.maxBusy()))
	ms.add("comm.messages", "count", float64(msgs2-msgs1))

	// Step 3c: decoding of the p received runs.
	dec, err := rec.step(m, walk, "wire.decode", "bytes", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		pe.runs = make([]merge.Sequence, pes)
		var total int64
		for src, msg := range pe.recv {
			ss, lcps, err := wire.DecodeStringsLCP(msg)
			if err != nil {
				return total, fmt.Errorf("wire: run from PE %d: %w", src, err)
			}
			pe.runs[src] = merge.Sequence{Strings: ss, LCPs: lcps}
			total += int64(len(msg))
		}
		return total, nil
	})
	if err != nil {
		return wk, err
	}
	var wireBusy time.Duration
	for r := range enc.busy {
		wireBusy = max(wireBusy, enc.busy[r]+dec.busy[r])
	}
	ms.add("wire.encode_mb_per_s", "MB/s", enc.rate())
	ms.add("wire.decode_mb_per_s", "MB/s", dec.rate())
	ms.add("wire.busy_ms", "ms", millis(wireBusy))
	ms.add("wire.encoded_bytes_per_str", "B/str", float64(enc.sumWork())/n)

	// Step 4: LCP-aware multiway merge.
	st, err = rec.step(m, walk, "merge.merge", "chars", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		var work int64
		pe.merged, work = merge.MergeLCP(pe.runs)
		return work, nil
	})
	if err != nil {
		return wk, err
	}
	wk.wall = rec.close(walk, wk.n, "strings")
	ms.add("walk.wall_ms", "ms", millis(wk.wall))
	ms.add("walk.unattributed_ms", "ms", millis(rec.selfTime(walk)))
	var merged int64
	recvChars := make([]float64, pes)
	for r, pe := range wk.pe {
		merged += int64(len(pe.merged.Strings))
		for _, s := range pe.merged.Strings {
			recvChars[r] += float64(len(s))
		}
	}
	ms.add("merge.busy_ms", "ms", millis(st.maxBusy()))
	ms.add("merge.mstr_per_s", "Mstr/s", perSecond(merged, st.sumBusy()))
	ms.add("merge.work_chars_per_str", "chars/str", float64(st.sumWork())/n)
	ms.add("partition.imbalance", "x", maxOverMean(recvChars))

	// The distributed verifier, on the walk's own output.
	st, err = rec.step(m, root, "verify.sortedness", "strings", func(c *comm.Comm) (int64, error) {
		pe := &wk.pe[c.Rank()]
		return int64(len(pe.merged.Strings)), verify.SortednessLCP(c, pe.merged.Strings, pe.merged.LCPs, 901)
	})
	if err != nil {
		return wk, err
	}
	ms.add("verify.busy_ms", "ms", millis(st.maxBusy()))
	ms.add("verify.mstr_per_s", "Mstr/s", st.rate())

	// The walk is held to the same standard as the program: its output goes
	// through the benchmark's checker.
	out := &stringsort.Result{PEs: make([]stringsort.PEOutput, pes)}
	for r, pe := range wk.pe {
		out.PEs[r].Strings = pe.merged.Strings
	}
	return wk, checkResult(out, nil, e.want)
}

func maxOverMean(xs []float64) float64 {
	var sum, hi float64
	for _, x := range xs {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(xs)))
}
