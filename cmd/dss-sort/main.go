// Command dss-sort sorts newline-separated strings with one of the
// paper's distributed algorithms on a simulated p-PE machine, writing the
// sorted lines to stdout and the run statistics to stderr.
//
// Usage:
//
//	dss-sort -algo PDMS -p 8 [-lcp] [-validate] < input.txt > sorted.txt
//	dss-sort -algo MS -p 16 -in big.txt -out sorted.txt
//	dss-sort -algo PDMS -p 4 -transport tcp < input.txt > sorted.txt
//
// The input is read in 1 MiB chunks that are split into lines in place,
// and the lines are dealt round-robin (line i to PE i mod p) into per-PE
// arrays of exactly their size; the sort works on the lines where they
// lie. PDMS sorts distinguishing prefixes: each is resolved to its full
// input line by looking up its origin, with no communication, in RAM and
// under -mem-budget alike. The sorted lines go out through a 1 MiB
// buffered writer.
//
// With -transport tcp the PEs exchange messages over real loopback TCP
// sockets instead of in-process mailboxes (output and statistics are
// identical — accounting happens above the transport); -peers pins the
// bind addresses and sets p. For one PE per OS process, see dss-worker.
//
// The Step-3 string exchange is split-phase: each PE posts its buckets as
// they are encoded and decodes incoming runs as they arrive, overlapping
// communication with compute (reported as the overlap statistic).
//
// -codec decorates the transport with a wire codec (flate, or the
// LCP-front-coding-aware lcp codec) that compresses frames of 64 bytes
// and more before they cross the fabric. The model statistics
// (model time, bytes sent) are billed on the raw payloads and stay
// bit-identical under every codec; the "wire bytes" line reports what
// actually crossed the wire. All tuning flags (-algo, -seed,
// -oversampling, -charsample, -eps, -tiebreak, -randomsample, -codec,
// -validate, -cores, -mem-budget, -spill-dir, -trace, -chaos,
// -chaos-seed, -net-timeout) are shared verbatim with dss-worker: each
// is bound to one stringsort.Config field by
// stringsort.RegisterTuningFlags.
//
// -chaos LEVEL injects deterministic faults (frame delays, reordering
// within delivery bounds, and at the "drop" level mid-run connection
// kills with partial final writes) under the codec, seeded by
// -chaos-seed. With -transport tcp the dropped connections exercise the
// backend's reconnect-with-resend path; output and model statistics must
// be — and are pinned by tests to be — bit-identical to an undisturbed
// run, and the stderr summary's "net:" line reports the reconnect and
// resend volume. -net-timeout bounds each reconnect attempt.
//
// Observability: -trace FILE writes a Chrome trace-event timeline of the
// run (load in ui.perfetto.dev), -debug-addr HOST:PORT serves pprof,
// expvar run gauges and live trace snapshots over HTTP, and
// -cpuprofile/-memprofile write runtime/pprof profiles. See the README's
// "Observability" section.
//
// -mem-budget engages the bounded-memory out-of-core pipeline: each PE
// spills Step-3 runs to page files once its metered arenas exceed the
// budget and streams its merged fragment to a sorted-run file, which
// dss-sort then copies to the output line by line (PDMS prefixes are
// resolved to full strings through their recorded origins). The buckets
// travel exactly as in an unbudgeted run; only where the received bytes
// wait and where the merge's output lands differ. The sorted output bytes
// are identical to an unbudgeted run; the stderr summary gains a "spill:"
// line with the bytes written/read back and the peak metered footprint.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dss/internal/debugserve"
	"dss/internal/input"
	"dss/internal/profiling"
	"dss/stringsort"
)

func main() {
	cfg := stringsort.Config{Reconstruct: true}
	stringsort.RegisterTuningFlags(flag.CommandLine, &cfg)
	profiling.RegisterFlags(flag.CommandLine)
	p := flag.Int("p", 4, "number of simulated PEs")
	inPath := flag.String("in", "", "input file (default stdin)")
	outPath := flag.String("out", "", "output file (default stdout)")
	printLCP := flag.Bool("lcp", false, "prefix each output line with its LCP value")
	transportName := flag.String("transport", "local", "message substrate: local (in-process mailboxes) or tcp (real sockets)")
	peersFlag := flag.String("peers", "", "comma-separated host:port bind addresses for the tcp transport, one per PE (sets p; default automatic loopback ports)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar run gauges and live trace snapshots on this host:port (port 0 picks one; the bound address is printed)")
	flag.Parse()

	tr, err := stringsort.ParseTransport(*transportName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(2)
	}
	var peers []string
	if *peersFlag != "" {
		if tr != stringsort.TransportTCP {
			fmt.Fprintln(os.Stderr, "dss-sort: -peers requires -transport tcp")
			profiling.Exit(2)
		}
		peers = stringsort.ParsePeers(*peersFlag)
		*p = len(peers)
	}
	if *debugAddr != "" {
		bound, err := debugserve.Start(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dss-sort: debug endpoint listening on http://%s/debug/pprof/\n", bound)
	}
	if err := profiling.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}
	defer profiling.Stop()

	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		defer f.Close()
		in = f
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		defer f.Close()
		out = f
	}

	// Read every chunk first, so the line count is known, then deal the
	// lines round-robin over the PEs, like the paper's inputs, into arrays
	// of exactly their size. The lines stay in their chunks' arenas.
	var chunks [][][]byte
	lr := input.NewLineReader(in, 0)
	n := 0
	for {
		chunk, err := lr.Next()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		if chunk == nil {
			break
		}
		chunks = append(chunks, chunk)
		n += len(chunk)
	}
	inputs := make([][][]byte, *p)
	for pe := range inputs {
		inputs[pe] = make([][]byte, 0, (n-pe+*p-1) / *p)
	}
	i := 0
	for k, chunk := range chunks {
		for _, line := range chunk {
			inputs[i%*p] = append(inputs[i%*p], line)
			i++
		}
		chunks[k] = nil
	}

	cfg.Transport = tr
	cfg.TCPPeers = peers
	res, err := stringsort.Sort(inputs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}

	// The run directory of a budgeted sort is removed whether or not the
	// output could be written.
	err = writeOutput(out, res, inputs, *printLCP)
	if len(res.PEs) > 0 && res.PEs[0].RunFile != "" {
		os.RemoveAll(filepath.Dir(res.PEs[0].RunFile))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}

	res.Stats.WriteSummary(os.Stderr, cfg.Algorithm, fmt.Sprintf("%d PEs", *p), n)
}

// writeOutput writes every PE's sorted fragment to out, in PE order.
func writeOutput(out io.Writer, res *stringsort.Result, inputs [][][]byte, printLCP bool) error {
	w := bufio.NewWriterSize(out, 1<<20)
	for _, pe := range res.PEs {
		if pe.RunFile != "" {
			// Budget mode: the fragment lives in a sorted-run file; stream
			// it to the output. PDMS run files hold distinguishing prefixes
			// with origins — resolve each to its full input string, exactly
			// like Sort does for in-RAM runs (so -lcp is moot there, as
			// prefix LCPs do not apply to full strings).
			if err := writeRunFile(w, pe.RunFile, res.PrefixOnly, inputs, printLCP); err != nil {
				return err
			}
			continue
		}
		for i, s := range pe.Strings {
			if printLCP && pe.LCPs != nil {
				fmt.Fprintf(w, "%d\t", pe.LCPs[i])
			}
			w.Write(s)
			w.WriteByte('\n')
		}
	}
	return w.Flush()
}

// writeRunFile streams one PE's sorted-run file to the output. With
// prefixOnly (PDMS under a budget) each item is a distinguishing prefix
// carrying its origin, which indexes the still-resident input fragments;
// the full string is written instead of the prefix.
func writeRunFile(w *bufio.Writer, path string, prefixOnly bool, inputs [][][]byte, printLCP bool) error {
	rf, err := stringsort.OpenRun(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	for {
		s, lcp, origin, ok, err := rf.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if prefixOnly && rf.HasOrigins() {
			s = inputs[origin.PE][origin.Index]
		} else if printLCP && rf.HasLCP() {
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
