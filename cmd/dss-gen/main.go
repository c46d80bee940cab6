// Command dss-gen writes the synthetic evaluation workloads of Section VII
// to stdout (or a file), one string per line, for use with dss-sort or
// external tools.
//
// Usage:
//
//	dss-gen -kind dn -ratio 0.5 -n 100000 -len 100 > dn05.txt
//	dss-gen -kind cc -n 50000 > cc.txt
//	dss-gen -kind dna -n 50000 > dna.txt
//	dss-gen -kind suffix -n 20000 > suffix.txt
//	dss-gen -kind skew -ratio 0.5 -n 100000 -len 100 > skew.txt
//
// By default the whole instance is materialized in memory before writing.
// -chunk k switches to the streaming mode of the out-of-core pipeline: the
// instance is generated and written in batches of at most k strings, so
// peak memory is one batch regardless of -n. A chunked run emits the
// generator's p=ceil(n/k) instance (every generator is a deterministic
// function of (seed, pe, p)); for the strided generators (dn, skew,
// suffix) that is the same global string set as the monolithic run, merely
// emitted in strided order — for cc, dna and random it is a different (but
// equally distributed) sample. -stats in chunked mode reports the
// streaming aggregates (strings, chars, max len); the distinguishing
// prefix total D needs the whole instance sorted and is only computed in
// the monolithic mode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"dss/internal/input"
	"dss/internal/strutil"
)

func main() {
	kind := flag.String("kind", "dn", "workload: dn, skew, cc, dna, suffix, random")
	n := flag.Int("n", 10000, "total number of strings (text length for suffix)")
	length := flag.Int("len", 100, "string length (dn/skew)")
	ratio := flag.Float64("ratio", 0.5, "D/N ratio (dn/skew)")
	seed := flag.Int64("seed", 1, "random seed (dn and skew are deterministic: their output does not depend on it)")
	outPath := flag.String("out", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "print instance statistics to stderr")
	chunk := flag.Int("chunk", 0, "streaming mode: generate and write in batches of at most this many strings (0 = materialize everything; bounds peak memory to one batch)")
	flag.Parse()

	// Number of generation batches: 1 materializes the whole instance. The
	// per-batch share must be uniform (the generators take a per-PE count),
	// so -n is rounded up to a multiple of -chunk in streaming mode.
	batches := 1
	perBatch := *n
	if *chunk > 0 && *chunk < *n {
		batches = (*n + *chunk - 1) / *chunk
		perBatch = *chunk
		if batches*perBatch != *n {
			fmt.Fprintf(os.Stderr, "dss-gen: -chunk %d does not divide -n %d; generating %d strings\n",
				*chunk, *n, batches*perBatch)
		}
	}

	var gen input.Generator
	switch *kind {
	case "dn":
		gen = func(pe, p int) [][]byte {
			return input.DN(input.DNConfig{StringsPerPE: perBatch, Length: *length, Ratio: *ratio, Seed: *seed}, pe, p)
		}
	case "skew":
		gen = func(pe, p int) [][]byte {
			return input.DNSkewed(input.DNConfig{StringsPerPE: perBatch, Length: *length, Ratio: *ratio, Seed: *seed}, pe, p)
		}
	case "cc":
		gen = func(pe, p int) [][]byte {
			return input.CommonCrawlLike(input.CCConfig{LinesPerPE: perBatch, Seed: *seed}, pe, p)
		}
	case "dna":
		gen = func(pe, p int) [][]byte {
			return input.DNAReads(input.DNAConfig{ReadsPerPE: perBatch, Seed: *seed}, pe, p)
		}
	case "suffix":
		gen = func(pe, p int) [][]byte {
			return input.SuffixInstance(input.SuffixConfig{TextLen: batches * perBatch, Seed: *seed}, pe, p)
		}
	case "random":
		gen = func(pe, p int) [][]byte {
			return input.Random(perBatch, *length, 26, pe, p, *seed)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -kind %q\n", *kind)
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		outFile = f
		out = f
	}
	w := bufio.NewWriter(out)

	// Streaming aggregates (valid in both modes); D only when materialized.
	var count, maxLen int
	var chars, d int64

	emit := func(ss [][]byte) error {
		if *stats {
			count += len(ss)
			chars += strutil.TotalLen(ss)
			if m := strutil.MaxLen(ss); m > maxLen {
				maxLen = m
			}
			if batches == 1 {
				d = strutil.TotalD(ss)
			}
		}
		for _, s := range ss {
			if _, err := w.Write(s); err != nil {
				return err
			}
			if err := w.WriteByte('\n'); err != nil {
				return err
			}
		}
		return nil
	}
	if err := input.Batches(gen, batches, emit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "strings:  %d\n", count)
		fmt.Fprintf(os.Stderr, "chars:    %d (avg %.1f per string)\n", chars, float64(chars)/float64(count))
		if batches == 1 {
			fmt.Fprintf(os.Stderr, "D:        %d\n", d)
			fmt.Fprintf(os.Stderr, "D/N:      %.4f\n", float64(d)/float64(chars))
		} else {
			fmt.Fprintf(os.Stderr, "D:        (not computed in -chunk mode)\n")
		}
		fmt.Fprintf(os.Stderr, "max len:  %d\n", maxLen)
	}
}
