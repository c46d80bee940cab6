package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dss/stringsort"
)

// sortedResult builds a correct four-PE result for the given input.
func sortedResult(inputs [][][]byte) *stringsort.Result {
	var all []string
	for _, in := range inputs {
		for _, s := range in {
			all = append(all, string(s))
		}
	}
	sort.Strings(all)
	res := &stringsort.Result{PEs: make([]stringsort.PEOutput, pes)}
	for i, s := range all {
		pe := i * pes / len(all)
		res.PEs[pe].Strings = append(res.PEs[pe].Strings, []byte(s))
	}
	return res
}

func testInputs() ([][][]byte, digest) {
	var lines [][]byte
	for i := range 40 {
		lines = append(lines, []byte(fmt.Sprintf("line-%02d", (i*17)%40)))
	}
	return distribute(lines), digestOf(lines)
}

func TestCheckerRejectsDamagedOutputs(t *testing.T) {
	inputs, want := testInputs()
	damage := map[string]func(res *stringsort.Result){
		"swapped pair": func(res *stringsort.Result) {
			ss := res.PEs[1].Strings
			ss[2], ss[3] = ss[3], ss[2]
		},
		"swapped across a PE boundary": func(res *stringsort.Result) {
			a, b := res.PEs[1].Strings, res.PEs[2].Strings
			a[len(a)-1], b[0] = b[0], a[len(a)-1]
		},
		"dropped string": func(res *stringsort.Result) {
			res.PEs[2].Strings = res.PEs[2].Strings[1:]
		},
		"duplicated string": func(res *stringsort.Result) {
			ss := res.PEs[0].Strings
			res.PEs[0].Strings = append(ss[:1:1], ss...)
		},
		"replaced string": func(res *stringsort.Result) {
			// Keeps count and order: only the multiset hash can tell.
			res.PEs[3].Strings[0] = append([]byte(nil), res.PEs[3].Strings[1]...)
		},
	}
	var ops opCount
	if !ops.record("sort", checkResult(sortedResult(inputs), inputs, want)) {
		t.Fatalf("checker rejects a correct result: %v", ops.errs)
	}
	for name, mutate := range damage {
		res := sortedResult(inputs)
		mutate(res)
		before := ops.failed
		if ops.record("sort", checkResult(res, inputs, want)) || ops.failed != before+1 {
			t.Errorf("%s: not counted as a failed operation", name)
		}
	}
}

func TestCheckerResolvesPrefixesThroughOrigins(t *testing.T) {
	inputs, want := testInputs()
	build := func() *stringsort.Result {
		type item struct {
			s string
			o stringsort.Origin
		}
		var all []item
		for pe, in := range inputs {
			for i, s := range in {
				all = append(all, item{string(s), stringsort.Origin{PE: pe, Index: i}})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
		res := &stringsort.Result{PEs: make([]stringsort.PEOutput, pes), PrefixOnly: true}
		for i, it := range all {
			pe := i * pes / len(all)
			res.PEs[pe].Strings = append(res.PEs[pe].Strings, []byte(it.s[:6])) // "line-N": a proper prefix
			res.PEs[pe].Origins = append(res.PEs[pe].Origins, it.o)
		}
		return res
	}
	if err := checkResult(build(), inputs, want); err != nil {
		t.Fatalf("checker rejects correct prefixes: %v", err)
	}
	res := build()
	res.PEs[0].Origins[1] = res.PEs[0].Origins[0]
	if err := checkResult(res, inputs, want); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("an origin named twice: got %v", err)
	}
	res = build()
	res.PEs[0].Strings[0] = []byte("nope")
	if err := checkResult(res, inputs, want); err == nil || !strings.Contains(err.Error(), "not a prefix") {
		t.Errorf("a prefix that does not match its origin: got %v", err)
	}
}

func TestCheckSortedFile(t *testing.T) {
	inputs, want := testInputs()
	write := func(res *stringsort.Result) string {
		var lines [][]byte
		for _, pe := range res.PEs {
			lines = append(lines, pe.Strings...)
		}
		path := filepath.Join(t.TempDir(), "out.txt")
		if err := writeLines(path, lines); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := checkSortedFile(write(sortedResult(inputs)), want); err != nil {
		t.Fatalf("checker rejects a correct file: %v", err)
	}
	res := sortedResult(inputs)
	res.PEs[1].Strings[0], res.PEs[1].Strings[1] = res.PEs[1].Strings[1], res.PEs[1].Strings[0]
	if err := checkSortedFile(write(res), want); err == nil {
		t.Error("a file with a swapped pair passes")
	}
	res = sortedResult(inputs)
	res.PEs[1].Strings = res.PEs[1].Strings[:len(res.PEs[1].Strings)-1]
	if err := checkSortedFile(write(res), want); err == nil {
		t.Error("a file with a dropped line passes")
	}
	if err := checkSortedFile(filepath.Join(t.TempDir(), "missing"), want); !os.IsNotExist(err) {
		t.Errorf("a missing file: got %v", err)
	}
}
