package stringsort

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sortedLines is what SortToFile must write for inputs: every input line,
// sorted bytewise, each followed by '\n'.
func sortedLines(inputs [][][]byte) []byte {
	all := flatten(inputs)
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })
	return joinLines(all)
}

// joinLines returns ss as lines, each followed by '\n'.
func joinLines(ss [][]byte) []byte {
	var b bytes.Buffer
	for _, s := range ss {
		b.Write(s)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// assertEmptyDir fails the test if anything is left in dir.
func assertEmptyDir(t *testing.T, label, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("%s: %q left behind in the spill directory", label, e.Name())
	}
}

// toFile runs SortToFile into a regular file after a header line and
// appends a trailer line where it left the offset, returning the file's
// contents.
func toFile(t *testing.T, inputs [][][]byte, cfg Config) ([]byte, Stats) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.WriteString("header\n")
	st, err := SortToFile(inputs, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("trailer\n")
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// toPipe runs SortToFile into the write end of an os.Pipe, which takes no
// positioned writes, and returns what the read end received.
func toPipe(t *testing.T, inputs [][][]byte, cfg Config) ([]byte, Stats) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	st, err := SortToFile(inputs, cfg, w)
	w.Close()
	b := <-got
	if err != nil {
		t.Fatal(err)
	}
	return b, st
}

// TestSortToFileDifferential: SortToFile writes exactly the sorted input
// lines for all six algorithms, in RAM and under a 16 KiB budget (the merge
// families spill), over both transports, at p = 1, 3 and 4, to a regular
// file — starting at its offset and leaving it at the end — and to a pipe.
// Two lines are longer than the budget's output page. Validation runs in
// every cell, the statistics equal Sort's, and the spill directory is empty
// afterwards.
func TestSortToFileDifferential(t *testing.T) {
	setPageSize(t, testPage)
	rng := rand.New(rand.NewSource(3707))
	for _, p := range []int{1, 3, 4} {
		inputs := genInputs(rng, p, 4000)
		for _, c := range "kq" {
			inputs[0] = append(inputs[0], bytes.Repeat([]byte{byte(c)}, 3*testPage))
		}
		want := sortedLines(inputs)
		for _, algo := range Algorithms {
			for _, tr := range Transports {
				for _, budget := range []bool{false, true} {
					label := fmt.Sprintf("p=%d %v %v budget=%v", p, algo, tr, budget)
					dir := t.TempDir()
					cfg := Config{Algorithm: algo, Transport: tr, Seed: 11, Validate: true, SpillDir: dir}
					if budget {
						cfg.MemBudget = 16 << 10
					}
					ref, err := Sort(inputs, cfg)
					if err != nil {
						t.Fatalf("%s: Sort: %v", label, err)
					}
					if len(ref.PEs) > 0 && ref.PEs[0].RunFile != "" {
						os.RemoveAll(runDirOf(ref.PEs[0].RunFile))
					}
					got, st := toFile(t, inputs, cfg)
					if want := append(append([]byte("header\n"), want...), "trailer\n"...); !bytes.Equal(got, want) {
						t.Fatalf("%s: file output differs from the sorted input (%d bytes, want %d)", label, len(got), len(want))
					}
					if budgetInvariant(st) != budgetInvariant(ref.Stats) {
						t.Fatalf("%s: statistics differ from Sort's:\n%+v\n%+v", label, budgetInvariant(st), budgetInvariant(ref.Stats))
					}
					if budget && p > 1 && algo != HQuick && st.SpillBytesWritten == 0 {
						t.Fatalf("%s: nothing spilled under the budget", label)
					}
					if got, _ := toPipe(t, inputs, cfg); !bytes.Equal(got, want) {
						t.Fatalf("%s: pipe output differs from the sorted input (%d bytes, want %d)", label, len(got), len(want))
					}
					assertEmptyDir(t, label, dir)
				}
			}
		}
	}
}

// TestSortToFileWriteFailure: an output whose writes fail — here a file
// opened read-only — makes SortToFile return the write error, in RAM and
// under a budget, and leaves nothing in the spill directory.
func TestSortToFileWriteFailure(t *testing.T) {
	setPageSize(t, testPage)
	rng := rand.New(rand.NewSource(3708))
	inputs := genInputs(rng, 4, 2000)
	path := filepath.Join(t.TempDir(), "ro.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{MS, PDMS} {
		for _, budget := range []bool{false, true} {
			label := fmt.Sprintf("%v budget=%v", algo, budget)
			dir := t.TempDir()
			cfg := Config{Algorithm: algo, Seed: 11, SpillDir: dir}
			if budget {
				cfg.MemBudget = 16 << 10
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = SortToFile(inputs, cfg, f)
			f.Close()
			if err == nil || !strings.Contains(err.Error(), "stringsort: output") {
				t.Fatalf("%s: got %v, want the failed write", label, err)
			}
			assertEmptyDir(t, label, dir)
		}
	}
}
