// Command dss-worker runs ONE processing element of a distributed string
// sort as an OS process, communicating with its peers over TCP. Launch p
// workers — on one host or many — with the same peer table and input, and
// together they execute a real distributed sort: rank r's output file holds
// the r-th fragment of the globally sorted sequence, so concatenating the
// fragments in rank order yields exactly what `dss-sort` produces in a
// single process on the same input and seed (identical statistics too —
// byte accounting happens above the transport). Each worker calls
// stringsort.RunPE, the per-rank routine dss-sort's stringsort.Sort runs on
// every rank of its in-process machine: sort, statistics exchange,
// validation and trace gather are one code path in both binaries. The one
// difference is PDMS with full strings: a worker holds only its own lines,
// so it queries the origin ranks for them (core.Reconstruct) where
// dss-sort looks them up.
//
// Localhost example (4 workers, PDMS):
//
//	PEERS=127.0.0.1:9400,127.0.0.1:9401,127.0.0.1:9402,127.0.0.1:9403
//	for r in 0 1 2 3; do
//	  dss-worker -rank $r -peers $PEERS -algo PDMS -in input.txt -out sorted.$r &
//	done
//	wait
//	cat sorted.0 sorted.1 sorted.2 sorted.3 > sorted.txt
//
// Every worker reads only its own byte range of the input (input.Range, the
// split dss-sort's PEs use): of the input's S bytes, rank r holds the lines
// whose first byte lies in [r·S/p, (r+1)·S/p). The input must be a regular
// file; on a cluster, ship it to every host or place it on a shared
// filesystem.
//
// Flag parity with dss-sort: every tuning flag of dss-sort (-algo, -seed,
// -oversampling, -charsample, -eps, -tiebreak, -randomsample, -codec,
// -validate, -cores, -mem-budget, -spill-dir, -trace, -chaos,
// -chaos-seed, -net-timeout) is accepted here with identical semantics —
// both binaries bind the same stringsort.RegisterTuningFlags set into
// their Config. The transport is fail-stop, like an MPI job: when a
// peer's connection drops or its process dies mid-run, every worker's run
// fails within moments and the worker exits non-zero. -net-timeout bounds
// the staged shutdown at the end of a run: how long a worker waits for its
// last frames to be written and for every peer's goodbye before it closes
// its sockets.
// With -mem-budget the worker runs the bounded-memory out-of-core
// pipeline: it spills Step-3 runs to page files under -spill-dir and
// streams its sorted fragment from a run file to -out instead of
// materializing it. One difference to dss-sort: a budgeted PDMS worker
// writes the distinguishing prefixes themselves (with -lcp available),
// since resolving an origin that lives on another rank would need the
// whole input resident — exactly what the budget forbids.
// Launch every worker of one job with the same -codec: RunPE decorates the
// endpoint with the wire codec, frames are compressed on the wire, and the
// model statistics stay bit-identical to an uncompressed run. The intentional
// gaps are the machine-assembly flags: dss-worker has no -p (the PE count
// is the length of the -peers table) and no -transport (one worker per OS
// process is by definition the TCP substrate); dss-sort in turn has no
// -rank, -rendezvous or -stats.
//
// Observability: with -trace FILE every worker records its own timeline,
// the buffers are gathered to rank 0 after the run with per-process
// clock-offset estimation, and rank 0 alone writes the single merged
// Chrome trace-event file (one process track per rank). -debug-addr
// serves this worker's own pprof/expvar/live-trace HTTP endpoint; port 0
// works — the bound address is printed at startup, before the
// rendezvous. -cpuprofile/-memprofile write runtime/pprof profiles,
// flushed on every exit path.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dss/internal/debugserve"
	"dss/internal/input"
	"dss/internal/profiling"
	"dss/internal/transport/tcp"
	"dss/stringsort"
)

func main() {
	cfg := stringsort.Config{Reconstruct: true}
	stringsort.RegisterTuningFlags(flag.CommandLine, &cfg)
	profiling.RegisterFlags(flag.CommandLine)
	rank := flag.Int("rank", -1, "this worker's rank in [0, p)")
	peersFlag := flag.String("peers", "", "comma-separated host:port peer table, one entry per rank (identical on all workers; its length is the PE count)")
	inPath := flag.String("in", "", "input file, newline-separated strings (each worker reads its own byte range; required)")
	outPath := flag.String("out", "", "output file for this rank's sorted fragment (default stdout)")
	printLCP := flag.Bool("lcp", false, "prefix each output line with its LCP value")
	rendezvous := flag.Duration("rendezvous", 30*time.Second, "how long to wait for peers to appear")
	statsAll := flag.Bool("stats", false, "print run statistics on every rank (default: rank 0 only)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar run gauges and live trace snapshots on this host:port (port 0 picks one; the bound address is printed at startup)")
	flag.Parse()

	peers := stringsort.ParsePeers(*peersFlag)
	if len(peers) == 0 {
		fatal(fmt.Errorf("missing -peers"))
	}
	if *rank < 0 || *rank >= len(peers) {
		fatal(fmt.Errorf("-rank %d out of range for %d peers", *rank, len(peers)))
	}
	if *inPath == "" {
		fatal(fmt.Errorf("missing -in (every worker reads the shared input file)"))
	}
	if *debugAddr != "" {
		// Printed BEFORE the rendezvous so a port-0 listener is reachable
		// while the worker is still waiting for its peers.
		bound, err := debugserve.Start(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dss-worker: rank %d debug endpoint listening on http://%s/debug/pprof/\n", *rank, bound)
	}
	if err := profiling.Start(); err != nil {
		fatal(err)
	}
	defer profiling.Stop()

	local, err := readRange(*inPath, *rank, len(peers))
	if err != nil {
		fatal(err)
	}

	ep, err := tcp.ConnectConfig(*rank, peers, tcp.Config{
		RendezvousTimeout: *rendezvous,
		ShutdownTimeout:   cfg.NetTimeout,
	})
	if err != nil {
		fatal(err)
	}

	res, err := stringsort.RunPE(ep, local, cfg)
	if err != nil {
		ep.Close()
		fatal(fmt.Errorf("rank %d: %w", *rank, err))
	}
	// A transport failure the run never blocked on (a connection lost
	// after the last receive, a peer whose goodbye never came) surfaces
	// here: a worker whose connections died must not exit 0 on a
	// complete-looking output.
	if err = ep.Close(); err != nil {
		err = fmt.Errorf("transport: %w", err)
	} else {
		err = writeOutput(res.Output, *outPath, *printLCP)
	}
	// The run directory this rank created goes on every path.
	if res.Output.RunFile != "" {
		os.RemoveAll(filepath.Dir(res.Output.RunFile))
	}
	if err != nil {
		fatal(fmt.Errorf("rank %d: %w", *rank, err))
	}

	if *rank == 0 || *statsAll {
		res.Stats.WriteSummary(os.Stderr, cfg.Algorithm,
			fmt.Sprintf("%d worker processes", len(peers)))
	}
}

// writeOutput writes this rank's sorted fragment to outPath (stdout when
// empty). A truncated fragment must not exit 0: the whole point of the
// worker is that concatenating the per-rank files yields the sorted
// sequence, so write and close errors are returned, not deferred away.
func writeOutput(out stringsort.PEOutput, outPath string, printLCP bool) error {
	var dst io.Writer = os.Stdout
	var f *os.File
	if outPath != "" {
		var err error
		if f, err = os.Create(outPath); err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	w := bufio.NewWriterSize(dst, 1<<20)
	if out.RunFile != "" {
		// Budget mode: stream the sorted-run file to the output.
		if err := writeRunFile(w, out.RunFile, printLCP); err != nil {
			return err
		}
	}
	for i, s := range out.Strings {
		if printLCP && out.LCPs != nil {
			fmt.Fprintf(w, "%d\t", out.LCPs[i])
		}
		w.Write(s)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", outPath, err)
		}
	}
	return nil
}

// readRange reads this rank's lines of the shared input file: its byte
// range of the p-way split.
func readRange(path string, rank, p int) ([][]byte, error) {
	// Stat before Open: opening a FIFO would block until a writer came.
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("-in %s: not a regular file (every worker reads its own byte range)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	local, err := input.Range(f, fi.Size(), rank, p)
	if err != nil {
		return nil, fmt.Errorf("-in %s: %w", path, err)
	}
	return local, nil
}

// writeRunFile streams this rank's sorted-run file to the output line by
// line (LCP column included when asked for and present).
func writeRunFile(w *bufio.Writer, path string, printLCP bool) error {
	rf, err := stringsort.OpenRun(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	for {
		s, lcp, _, ok, err := rf.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if printLCP && rf.HasLCP() {
			fmt.Fprintf(w, "%d\t", lcp)
		}
		if _, err := w.Write(s); err != nil {
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	profiling.Exit(1)
}
