package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dss/internal/comm"
	"dss/internal/dupdetect"
	"dss/internal/fingerprint"
	"dss/internal/golomb"
	"dss/internal/partition"
	"dss/internal/spill"
	"dss/internal/transport/codec"
	"dss/internal/transport/local"
	"dss/stringsort"
)

const (
	smallRounds  = 200  // barriers and 64-byte allgathers per latency probe
	pingPongs    = 2000 // 64-byte round trips
	streamFrames = 256  // 1 MiB frames
	minPairs     = 3    // traced/untraced sort pairs, however short the window
)

// sideProbes measures the layers algorithm MS does not reach, and the ones it
// reaches only lightly, on the data the walk produced. Every span hangs off
// the traced run's root.
func (e *env) sideProbes(rec *recorder, root int, wk *walked, ms *metricSet) error {
	m, n := wk.machine, float64(wk.n)

	// dupdetect: PDMS's prefix doubling on the locally sorted strings.
	bytes0, _ := traffic(m)
	var dist, chars int64
	st, err := rec.step(m, root, "dupdetect.approxdist", "chars", func(c *comm.Comm) (int64, error) {
		dd := dupdetect.ApproxDist(c, wk.pe[c.Rank()].local, dupdetect.Options{
			Golomb: true, Seed: uint64(e.opt.seed), GroupID: 20,
		})
		var sum int64
		for _, d := range dd.Dist {
			sum += int64(d)
		}
		return sum, nil
	})
	if err != nil {
		return err
	}
	bytes1, _ := traffic(m)
	dist = st.sumWork()
	for _, pe := range wk.pe {
		for _, s := range pe.local {
			chars += int64(len(s))
		}
	}
	ms.add("dupdetect.busy_ms", "ms", millis(st.maxBusy()))
	ms.add("dupdetect.bytes_per_str", "B/str", float64(bytes1-bytes0)/n)
	ms.add("dupdetect.dn_ratio", "x", float64(dist)/float64(chars))

	// fingerprint: whole-string hashes, reused below as Golomb input.
	fps := make([][]uint64, pes)
	st, err = rec.step(m, root, "fingerprint.sum", "bytes", func(c *comm.Comm) (int64, error) {
		h := fingerprint.New(uint64(e.opt.seed))
		ss := wk.pe[c.Rank()].local
		out := make([]uint64, len(ss))
		var hashed int64
		for i, s := range ss {
			out[i] = h.Sum(s, len(s))
			hashed += int64(len(s))
		}
		fps[c.Rank()] = out
		return hashed, nil
	})
	if err != nil {
		return err
	}
	ms.add("fingerprint.hash_mb_per_s", "MB/s", st.rate())

	// golomb: the coding of a sorted fingerprint vector, as dupdetect ships it.
	for _, v := range fps {
		slices.Sort(v)
	}
	coded := make([][]byte, pes)
	enc, err := rec.step(m, root, "golomb.encode", "values", func(c *comm.Comm) (int64, error) {
		coded[c.Rank()] = golomb.EncodeSorted(fps[c.Rank()])
		return int64(len(fps[c.Rank()])), nil
	})
	if err != nil {
		return err
	}
	dec, err := rec.step(m, root, "golomb.decode", "values", func(c *comm.Comm) (int64, error) {
		vals, err := golomb.DecodeSorted(coded[c.Rank()])
		if err != nil {
			return 0, err
		}
		if !slices.Equal(vals, fps[c.Rank()]) {
			return 0, fmt.Errorf("golomb: decoded values differ from the encoded ones")
		}
		return int64(len(vals)), nil
	})
	if err != nil {
		return err
	}
	var codedBits int64
	for _, b := range coded {
		codedBits += 8 * int64(len(b))
	}
	ms.add("golomb.encode_mvals_per_s", "Mvals/s", enc.rate())
	ms.add("golomb.decode_mvals_per_s", "Mvals/s", dec.rate())
	ms.add("golomb.bits_per_val", "bits/val", float64(codedBits)/n)

	// partition.MultiSelect: the exact median cut across the received runs.
	st, err = rec.step(m, root, "partition.multiselect", "strings", func(c *comm.Comm) (int64, error) {
		pe := wk.pe[c.Rank()]
		runs := make([][][]byte, len(pe.runs))
		total := 0
		for i, r := range pe.runs {
			runs[i] = r.Strings
			total += len(r.Strings)
		}
		sink = partition.MultiSelect(runs, nil, total/2)
		return int64(total), nil
	})
	if err != nil {
		return err
	}
	ms.add("partition.multiselect_us", "us", micros(st.maxBusy()))

	if err := e.spillProbes(rec, root, wk, ms); err != nil {
		return err
	}

	// comm: latency of the small collectives PDMS issues by the dozen.
	st, err = rec.step(m, root, "comm.barrier", "rounds", func(c *comm.Comm) (int64, error) {
		g := comm.NewGroup(c, comm.WorldRanks(pes), 30)
		for range smallRounds {
			g.Barrier()
		}
		return smallRounds, nil
	})
	if err != nil {
		return err
	}
	ms.add("comm.barrier_us", "us", micros(st.maxBusy())/smallRounds)
	st, err = rec.step(m, root, "comm.allgatherv", "rounds", func(c *comm.Comm) (int64, error) {
		g := comm.NewGroup(c, comm.WorldRanks(pes), 31)
		payload := make([]byte, 64)
		for range smallRounds {
			sink = g.Allgatherv(payload)
		}
		return smallRounds, nil
	})
	if err != nil {
		return err
	}
	ms.add("comm.allgatherv_us", "us", micros(st.maxBusy())/smallRounds)

	if err := e.transportProbes(rec, root, ms); err != nil {
		return err
	}
	return e.codecProbes(rec, root, wk, ms)
}

// spillProbes drives the two halves of internal/spill directly: the sorted-run
// file format on each PE's merged fragment, and a pool's page files on the
// encoded runs the PE received.
func (e *env) spillProbes(rec *recorder, root int, wk *walked, ms *metricSet) error {
	m := wk.machine
	runPath := func(rank int) string { return filepath.Join(e.tmp, fmt.Sprintf("probe-pe%d.run", rank)) }
	defer func() {
		for r := range wk.pe {
			os.Remove(runPath(r))
		}
	}()

	wr, err := rec.step(m, root, "spill.run_write", "bytes", func(c *comm.Comm) (int64, error) {
		f, err := os.Create(runPath(c.Rank()))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		cw := &countWriter{w: f}
		rw, err := spill.NewRunWriter(cw, spill.RunWriterOpts{LCP: true}, nil, 0)
		if err != nil {
			return 0, err
		}
		merged := wk.pe[c.Rank()].merged
		for i, s := range merged.Strings {
			if err := rw.Add(s, merged.LCPs[i], 0); err != nil {
				return cw.n, err
			}
		}
		if err := rw.Close(); err != nil {
			return cw.n, err
		}
		return cw.n, f.Close()
	})
	if err != nil {
		return err
	}
	sc, err := rec.step(m, root, "spill.run_scan", "bytes", func(c *comm.Comm) (int64, error) {
		f, err := os.Open(runPath(c.Rank()))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		cr := &countReader{r: f}
		scan, err := spill.NewRunScanner(cr)
		if err != nil {
			return 0, err
		}
		items := 0
		for {
			s, _, _, ok, err := scan.Next()
			if err != nil {
				return cr.n, err
			}
			if !ok {
				break
			}
			sink = s
			items++
		}
		if want := len(wk.pe[c.Rank()].merged.Strings); items != want {
			return cr.n, fmt.Errorf("spill: run file returned %d items, %d were written", items, want)
		}
		return cr.n, nil
	})
	if err != nil {
		return err
	}
	ms.add("spill.run_write_mb_per_s", "MB/s", wr.rate())
	ms.add("spill.run_scan_mb_per_s", "MB/s", sc.rate())
	ms.add("spill.run_bytes_per_str", "B/str", float64(wr.sumWork())/float64(wk.n))

	pools := make([]*spill.Pool, pes)
	files := make([]*spill.File, pes)
	defer func() {
		for _, p := range pools {
			if p != nil {
				p.Close()
			}
		}
	}()
	pw, err := rec.step(m, root, "spill.page_write", "bytes", func(c *comm.Comm) (int64, error) {
		pool, err := spill.NewPool(spill.Config{Budget: 8 << 20, Dir: e.tmp}, c.Pool())
		if err != nil {
			return 0, err
		}
		pools[c.Rank()] = pool
		file, err := pool.CreateFile("probe")
		if err != nil {
			return 0, err
		}
		files[c.Rank()] = file
		for _, msg := range wk.pe[c.Rank()].recv {
			for off := 0; off < len(msg); off += pool.PageSize() {
				file.Append(msg[off:min(off+pool.PageSize(), len(msg))])
			}
		}
		_, err = file.Finish()
		return file.Size(), err
	})
	if err != nil {
		return err
	}
	pr, err := rec.step(m, root, "spill.page_read", "bytes", func(c *comm.Comm) (int64, error) {
		file, pool := files[c.Rank()], pools[c.Rank()]
		defer file.Close()
		var off int64
		for {
			b, err := file.ReadSpan(off, pool.PageSize())
			if err != nil {
				return off, err
			}
			if len(b) == 0 {
				break
			}
			sink = b
			off += int64(len(b))
		}
		if off != file.Size() {
			return off, fmt.Errorf("spill: page file returned %d bytes, %d were appended", off, file.Size())
		}
		return off, nil
	})
	if err != nil {
		return err
	}
	ms.add("spill.page_write_mb_per_s", "MB/s", pw.rate())
	ms.add("spill.page_read_mb_per_s", "MB/s", pr.rate())
	return nil
}

// transportProbes measures the workload's fabric below comm: construction,
// 64-byte round trips and 1 MiB streaming between endpoints 0 and 1. Each
// exchange runs once untimed first, so the timed pass finds the endpoints'
// buffer pools filled: the first pass pays for fresh memory, not for transport.
func (e *env) transportProbes(rec *recorder, root int, ms *metricSet) error {
	id := rec.open(root, "transport.setup", -1)
	f, err := e.newFabric()
	if err != nil {
		return err
	}
	defer f.Close()
	ms.add("transport.setup_ms", "ms", millis(rec.close(id, pes, "endpoints")))
	a, b := f.Endpoint(0), f.Endpoint(1)
	const tag = 7

	// exchange runs near on this goroutine and far on another; an endpoint
	// reports a lost connection by panicking.
	exchange := func(near, far func()) (err error) {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("transport: %v", r)
				}
				close(done)
			}()
			far()
		}()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("transport: %v", r)
			}
		}()
		near()
		return <-done
	}
	// timed records the second of two passes of an exchange.
	timed := func(name string, work int64, unit string, near, far func()) (time.Duration, error) {
		if err := exchange(near, far); err != nil {
			return 0, err
		}
		id := rec.open(root, name, 0)
		err := exchange(near, far)
		return rec.close(id, work, unit), err
	}

	ping := make([]byte, 64)
	d, err := timed("transport.pingpong", pingPongs, "round trips", func() {
		for range pingPongs {
			a.Send(1, tag, ping)
			a.Release(a.Recv(1, tag))
		}
	}, func() {
		for range pingPongs {
			msg := b.Recv(0, tag)
			b.Send(0, tag, msg)
			b.Release(msg)
		}
	})
	if err != nil {
		return err
	}
	ms.add("transport.pingpong_us", "us", micros(d)/pingPongs)

	frame := make([]byte, 1<<20)
	streamed := int64(streamFrames * len(frame))
	d, err = timed("transport.stream", streamed, "bytes", func() {
		for range streamFrames {
			a.Send(1, tag, frame)
		}
		a.Release(a.Recv(1, tag)) // the far side's receipt for the last frame
	}, func() {
		for range streamFrames {
			b.Release(b.Recv(0, tag))
		}
		b.Send(0, tag, ping[:1])
	})
	if err != nil {
		return err
	}
	ms.add("transport.stream_mb_per_s", "MB/s", perSecond(streamed, d))
	return nil
}

// codecProbes ships the walk's encoded buckets through each optional wire
// codec over the in-process fabric, so the figures are the codec's own cost.
func (e *env) codecProbes(rec *recorder, root int, wk *walked, ms *metricSet) error {
	for _, name := range []string{"lcp", "flate"} {
		f, err := codec.WrapFabric(local.New(pes), codec.Config{Name: name})
		if err != nil {
			return err
		}
		m := comm.NewOver(f)
		st, err := rec.step(m, root, "codec."+name, "bytes", func(c *comm.Comm) (int64, error) {
			parts := wk.pe[c.Rank()].parts
			sink = comm.NewGroup(c, comm.WorldRanks(pes), 8).Alltoallv(parts)
			var total int64
			for dst, part := range parts {
				if dst != c.Rank() { // self-sends bypass the codec
					total += int64(len(part))
				}
			}
			return total, nil
		})
		rep := m.Report()
		m.Close()
		if err != nil {
			return err
		}
		ms.add("codec."+name+"_ratio", "x", rep.CompressionRatio())
		ms.add("codec."+name+"_mb_per_s", "MB/s", perSecond(st.sumWork(), st.maxBusy()))
	}
	return nil
}

// tracePairs alternates untraced and traced sorts until the window closes.
// The untraced ones give the orchestrator's own numbers from the public Stats;
// the difference between the two medians is what the program's tracing costs.
func (e *env) tracePairs(ctx context.Context, ops *opCount, deadline time.Time, strings int64, walkWall time.Duration, ms *metricSet) error {
	tracePath := filepath.Join(e.tmp, "trace.json")
	var plain, traced []float64
	var last stringsort.Stats
	var traceBytes int64
	for ops.failed < maxFailures && (len(traced) < minPairs || time.Now().Before(deadline)) {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := e.sortOp("")
		if ops.record("sort", err) {
			plain = append(plain, s.wall.Seconds())
			last = s.stats
		}
		s, err = e.sortOp(tracePath)
		if ops.record("traced sort", err) {
			traced = append(traced, s.wall.Seconds())
			if fi, err := os.Stat(tracePath); err == nil {
				traceBytes = fi.Size()
			}
		}
	}
	n := float64(strings)
	ms.add("core.vs_walk_x", "x", median(plain)/walkWall.Seconds())
	ms.add("core.overlap_ms", "ms", last.MaxOverlapMS)
	ms.add("core.cpu_ms", "ms", last.CPUMS)
	ms.add("core.merge_wall_ms", "ms", last.MergeWallMS)
	ms.add("core.merge_cpu_ms", "ms", last.MergeCPUMS)
	ms.add("core.messages", "count", float64(last.Messages))
	ms.add("core.work_chars_per_str", "chars/str", float64(last.Work)/n)
	ms.add("core.imbalance", "x", last.Imbalance)
	ms.add("spill.bytes_written", "bytes", float64(last.SpillBytesWritten))
	ms.add("spill.bytes_read", "bytes", float64(last.SpillBytesRead))
	ms.add("spill.peak_live_mb", "MB", float64(last.PeakMemBytes)/1e6)
	overBudget := 0.0
	if e.w.memBudget > 0 {
		overBudget = float64(last.PeakMemBytes) / float64(e.w.memBudget)
	}
	ms.add("spill.peak_over_budget_x", "x", overBudget)
	ms.add("transport.resent_frames", "count", float64(last.ResentFrames))
	ms.add("trace.overhead_pct", "%", 100*(median(traced)-median(plain))/median(plain))
	ms.add("trace.file_mb", "MB", float64(traceBytes)/1e6)
	return nil
}

// traceRun is the traced run: one warm-up sort, the layer walk, the side
// probes, then traced and untraced sorts for the rest of the window.
func (e *env) traceRun(ctx context.Context, ops *opCount) ([]metric, []span, error) {
	if _, err := e.setup(ctx); err != nil {
		return nil, nil, err
	}
	e.load()
	deadline := time.Now().Add(e.opt.window)
	if _, err := e.sortOp(""); err != nil { // grows the heap before anything is timed
		return nil, nil, fmt.Errorf("warm-up sort: %w", err)
	}

	rec := newRecorder(fmt.Sprintf("%s-seed%d", e.w.name, e.opt.seed))
	root := rec.open(-1, "traced_run", -1)
	var ms metricSet
	wk, err := e.layerWalk(rec, root, &ms)
	if wk != nil {
		defer wk.machine.Close()
	}
	if !ops.record("layer walk", err) {
		return nil, rec.spans, err
	}
	if err := e.sideProbes(rec, root, wk, &ms); err != nil {
		return nil, rec.spans, err
	}
	strings, walkWall := wk.n, wk.wall
	wk.pe = nil // the walk's working set is garbage from here on
	if err := e.tracePairs(ctx, ops, deadline, strings, walkWall, &ms); err != nil {
		return nil, rec.spans, err
	}
	rec.close(root, int64(ops.attempted), "ops")
	return ms, rec.spans, nil
}
