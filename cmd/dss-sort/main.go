// Command dss-sort sorts newline-separated strings with one of the
// paper's distributed algorithms on a simulated p-PE machine, writing the
// sorted lines to stdout and the run statistics to stderr.
//
// Usage:
//
//	dss-sort -algo PDMS -p 8 [-validate] < input.txt > sorted.txt
//	dss-sort -algo MS -p 16 -in big.txt -out sorted.txt
//	dss-sort -algo PDMS -p 4 -transport tcp < input.txt > sorted.txt
//
// Each PE reads its own byte range of the input, all PEs at once
// (input.Range): of the input's S bytes, PE r holds the lines whose first
// byte lies in [r·S/p, (r+1)·S/p), cut in place in one arena of about S/p
// bytes, and the sort works on the lines where they lie. An input that
// takes no positioned reads (a pipe, a terminal) is first copied to an
// unlinked temporary file under -spill-dir and read the same way. The
// output is written by the sort itself (stringsort.SortToFile): each PE's
// Step-4 merge writes its lines straight into its own region of the
// output file with positioned writes, all PEs at once, so no sorted copy
// of the data is built. PDMS sorts distinguishing prefixes: its merge
// keeps only each prefix's origin, and once the statistics are taken each
// PE looks the input line each origin names up, with no communication, and
// writes the lines, in RAM and under -mem-budget alike. An output that
// takes no positioned writes (a pipe, a terminal) gets the same bytes
// through an unlinked temporary file. The stderr summary ends with an
// "envelope:" line that splits the process's wall time into reading the
// input and sorting and writing the output.
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
// -validate, -cores, -mem-budget, -spill-dir, -trace, -net-timeout) are
// shared verbatim with dss-worker: each is bound to one stringsort.Config
// field by stringsort.RegisterTuningFlags.
//
// The TCP transport is fail-stop: a lost connection fails the run.
// -net-timeout bounds its staged shutdown at the end of a run (the wait
// for every peer's goodbye).
//
// Observability: -trace FILE writes a Chrome trace-event timeline of the
// run (load in ui.perfetto.dev), -debug-addr HOST:PORT serves pprof,
// expvar run gauges and live trace snapshots over HTTP, and
// -cpuprofile/-memprofile write runtime/pprof profiles. See the README's
// "Observability" section.
//
// -mem-budget engages the bounded-memory out-of-core pipeline: each PE
// spills Step-3 runs to page files once its metered arenas exceed the
// budget, and its merge writes the output through one metered spill page.
// The buckets travel exactly as in an unbudgeted run; only where the
// received bytes wait differs. The sorted output bytes are identical to an
// unbudgeted run; the "spill:" line of the stderr summary reports the bytes
// written/read back and the peak metered footprint.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dss/internal/debugserve"
	"dss/internal/input"
	"dss/internal/profiling"
	"dss/stringsort"
)

func main() {
	start := time.Now()
	var cfg stringsort.Config
	stringsort.RegisterTuningFlags(flag.CommandLine, &cfg)
	profiling.RegisterFlags(flag.CommandLine)
	p := flag.Int("p", 4, "number of simulated PEs")
	inPath := flag.String("in", "", "input file (default stdin)")
	outPath := flag.String("out", "", "output file (default stdout)")
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
	if *p < 1 {
		fmt.Fprintln(os.Stderr, "dss-sort: -p must be at least 1")
		profiling.Exit(2)
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

	in := os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		defer f.Close()
		in = f
	}
	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		out = f
	}

	// Every PE reads its own byte range of the input, all at once.
	src, size, err := openInput(in, cfg.SpillDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}
	inputs := make([][][]byte, *p)
	errs := make([]error, *p)
	var wg sync.WaitGroup
	for pe := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inputs[pe], errs[pe] = input.Range(src, size, pe, *p)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "dss-sort: input:", err)
		profiling.Exit(1)
	}
	read := time.Now()

	cfg.Transport = tr
	cfg.TCPPeers = peers
	st, err := stringsort.SortToFile(inputs, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}
	// A write the file system reports only on close (NFS, a quota) must
	// not exit 0.
	if err := out.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dss-sort: closing %s: %v\n", out.Name(), err)
		profiling.Exit(1)
	}
	sorted := time.Now()

	st.WriteSummary(os.Stderr, cfg.Algorithm, fmt.Sprintf("%d PEs", *p))
	sec := func(from, to time.Time) float64 { return to.Sub(from).Seconds() }
	fmt.Fprintf(os.Stderr, "envelope:         %.3f s read, %.3f s sort+write, %.3f s total (process wall from main)\n",
		sec(start, read), sec(read, sorted), sec(start, time.Now()))
}

// openInput returns f as a ReaderAt of known size: a regular file from its
// current offset on, and anything else (a pipe, a terminal) after spooling
// it to an unlinked temporary file under dir, like the output side.
func openInput(f *os.File, dir string) (io.ReaderAt, int64, error) {
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		if base, err := f.Seek(0, io.SeekCurrent); err == nil {
			return io.NewSectionReader(f, base, fi.Size()-base), fi.Size() - base, nil
		}
	}
	tmp, err := os.CreateTemp(dir, "dss-in-")
	if err != nil {
		return nil, 0, fmt.Errorf("dss-sort: input: %w", err)
	}
	os.Remove(tmp.Name())
	size, err := io.Copy(tmp, f)
	if err != nil {
		tmp.Close()
		return nil, 0, fmt.Errorf("dss-sort: input: %w", err)
	}
	return tmp, size, nil
}
