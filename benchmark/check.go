package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"

	"dss/stringsort"
)

// digest identifies a multiset of strings independent of their order: the
// string count and the wrapping sum of per-string hashes. A dropped, added or
// altered string changes it; a reordering does not.
type digest struct {
	count int64
	sum   uint64
}

func (d *digest) add(s []byte) {
	d.count++
	d.sum += hashString(s)
}

func digestOf(lines [][]byte) digest {
	var d digest
	for _, s := range lines {
		d.add(s)
	}
	return d
}

// hashString is FNV-1a with a final avalanche, so that sums of hashes of
// strings differing in one late byte do not cancel.
func hashString(s []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range s {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// orderCheck consumes a claimed sorted sequence string by string, across PE
// boundaries, and reports the first order violation and the digest seen.
type orderCheck struct {
	prev []byte
	got  digest
	err  error
}

func (o *orderCheck) add(s []byte) {
	if o.err == nil && o.got.count > 0 && bytes.Compare(o.prev, s) > 0 {
		o.err = fmt.Errorf("output position %d sorts before its predecessor", o.got.count)
	}
	// The copy makes add safe for scanners that reuse their buffer.
	o.prev = append(o.prev[:0], s...)
	o.got.add(s)
}

func (o *orderCheck) finish(want digest) error {
	switch {
	case o.err != nil:
		return o.err
	case o.got.count != want.count:
		return fmt.Errorf("output has %d strings, input has %d", o.got.count, want.count)
	case o.got.sum != want.sum:
		return fmt.Errorf("output is not a permutation of the input (multiset hash %#x, want %#x)", o.got.sum, want.sum)
	}
	return nil
}

// originResolver maps PDMS distinguishing prefixes back to the full input
// strings through their Origin and checks that every (PE, Index) is named
// exactly once.
type originResolver struct {
	inputs [][][]byte
	seen   [][]bool
}

func newOriginResolver(inputs [][][]byte) *originResolver {
	r := &originResolver{inputs: inputs, seen: make([][]bool, len(inputs))}
	for pe, in := range inputs {
		r.seen[pe] = make([]bool, len(in))
	}
	return r
}

func (r *originResolver) resolve(prefix []byte, o stringsort.Origin) ([]byte, error) {
	if o.PE < 0 || o.PE >= len(r.inputs) || o.Index < 0 || o.Index >= len(r.inputs[o.PE]) {
		return nil, fmt.Errorf("origin (%d,%d) is outside the input", o.PE, o.Index)
	}
	if r.seen[o.PE][o.Index] {
		return nil, fmt.Errorf("origin (%d,%d) appears twice", o.PE, o.Index)
	}
	r.seen[o.PE][o.Index] = true
	full := r.inputs[o.PE][o.Index]
	if !bytes.HasPrefix(full, prefix) {
		return nil, fmt.Errorf("output %q is not a prefix of its origin (%d,%d)", prefix, o.PE, o.Index)
	}
	return full, nil
}

// checkResult validates one Sort result against the input it was given:
// fragments sorted, PE boundaries ordered, string count and multiset equal.
// Prefix-only (PDMS) outputs are judged by the full strings their origins
// name; budget-mode fragments are streamed from their run files.
func checkResult(res *stringsort.Result, inputs [][][]byte, want digest) error {
	var oc orderCheck
	var origins *originResolver
	if res.PrefixOnly {
		origins = newOriginResolver(inputs)
	}
	item := func(pe int, s []byte, o stringsort.Origin) error {
		if origins != nil {
			full, err := origins.resolve(s, o)
			if err != nil {
				return fmt.Errorf("PE %d: %w", pe, err)
			}
			s = full
		}
		oc.add(s)
		return nil
	}
	for pe, out := range res.PEs {
		if out.RunFile != "" {
			n, err := streamRun(out.RunFile, func(s []byte, o stringsort.Origin) error { return item(pe, s, o) })
			if err != nil {
				return fmt.Errorf("PE %d run file: %w", pe, err)
			}
			if n != out.RunCount {
				return fmt.Errorf("PE %d run file holds %d items, result says %d", pe, n, out.RunCount)
			}
			continue
		}
		if origins != nil && len(out.Origins) != len(out.Strings) {
			return fmt.Errorf("PE %d: %d origins for %d prefixes", pe, len(out.Origins), len(out.Strings))
		}
		for i, s := range out.Strings {
			var o stringsort.Origin
			if origins != nil {
				o = out.Origins[i]
			}
			if err := item(pe, s, o); err != nil {
				return err
			}
		}
	}
	return oc.finish(want)
}

func streamRun(path string, item func(s []byte, o stringsort.Origin) error) (int64, error) {
	rf, err := stringsort.OpenRun(path)
	if err != nil {
		return 0, err
	}
	defer rf.Close()
	var n int64
	for {
		s, _, o, ok, err := rf.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		if err := item(s, o); err != nil {
			return n, err
		}
		n++
	}
}

// checkSortedFile validates a dss-sort output file line by line without
// loading it.
func checkSortedFile(path string, want digest) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var oc orderCheck
	for sc.Scan() {
		oc.add(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return oc.finish(want)
}

// opCount tallies attempted and failed operations; an operation fails on an
// error, a non-zero exit or an output the checker rejects.
type opCount struct {
	attempted, failed int
	errs              []string // the first few failures, for the report
}

func (c *opCount) record(what string, err error) bool {
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, what+": "+err.Error())
	}
	return false
}
