package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"dss/internal/input"
	"dss/stringsort"
)

// pes is the machine size of every workload: four PEs as goroutines of one
// process, the paper's smallest evaluated machine and the largest that a
// two-core sandbox still schedules without measuring only the scheduler.
const pes = 4

// workload is one set of inputs and the configuration it is sorted with. Only
// P, Algorithm, Transport, MemBudget, SpillDir and Seed of stringsort.Config
// are ever set, so optional knobs can be deleted without touching this file.
type workload struct {
	name    string
	strings int // global string count at scale 1
	// gen generates PE pe's share of the multiset of strings, which is the
	// same for every seed.
	gen       func(perPE, pe int) [][]byte
	algorithm stringsort.Algorithm
	transport stringsort.Transport
	memBudget int64 // per PE; 0 = in-RAM
}

// Sizes are half of the probe sizes in the issue: the driver's cap of about
// 35 s per run (set-up, three set-up repeats and output checks included)
// does not fit fourteen 4 M-string sorts and seven cold processes.
var workloads = []workload{
	{name: "cc_ms_local", strings: 2_000_000, gen: genCC, algorithm: stringsort.MS},
	{name: "dn_pdms_local", strings: 500_000, gen: genDN(200, 0.25), algorithm: stringsort.PDMSGolomb},
	{name: "dnlong_ms_tcp", strings: 300_000, gen: genDN(500, 0), algorithm: stringsort.MS, transport: stringsort.TransportTCP},
	{name: "cc_ms_spill", strings: 2_000_000, gen: genCC, algorithm: stringsort.MS, memBudget: 8 << 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The generators are seeded with a constant, so a workload's multiset of
// strings is the same for every --seed (the D/N generator enumerates its
// strings and has no randomness to seed at all). The run's seed decides the
// file order and with it which PE holds which string. Drawing a new
// COMMONCRAWL-like vocabulary per seed moved bytes/str by 3.6 % and
// allocations by 12 % between seeds: more than those metrics' bounds.
const instanceSeed = 1

func genCC(perPE, pe int) [][]byte {
	return input.CommonCrawlLike(input.CCConfig{LinesPerPE: perPE, Seed: instanceSeed}, pe, pes)
}

func genDN(length int, ratio float64) func(perPE, pe int) [][]byte {
	return func(perPE, pe int) [][]byte {
		return input.DN(input.DNConfig{StringsPerPE: perPE, Length: length, Ratio: ratio, Seed: instanceSeed}, pe, pes)
	}
}

// generate builds the workload's global instance in file order. The seed
// decides, through the shuffle, which PE each string starts on: the generators
// emit sorted or strided fragments, which would hand every PE an already
// sorted local array.
func (w workload) generate(scale float64, seed int64) [][]byte {
	perPE := int(math.Round(float64(w.strings) * scale / pes))
	if perPE < 1 {
		perPE = 1
	}
	frags := make([][][]byte, pes)
	var wg sync.WaitGroup
	for pe := range frags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frags[pe] = w.gen(perPE, pe)
		}()
	}
	wg.Wait()
	lines := make([][]byte, 0, perPE*pes)
	for _, f := range frags {
		lines = append(lines, f...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(lines), func(i, j int) {
		lines[i], lines[j] = lines[j], lines[i]
	})
	return lines
}

// distribute deals the lines round-robin, exactly as dss-sort deals the lines
// of its input file, so the in-process sorts and the CLI runs see one input.
func distribute(lines [][]byte) [][][]byte {
	inputs := make([][][]byte, pes)
	for pe := range inputs {
		inputs[pe] = make([][]byte, 0, len(lines)/pes+1)
	}
	for i, s := range lines {
		inputs[i%pes] = append(inputs[i%pes], s)
	}
	return inputs
}

func writeLines(path string, lines [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range lines {
		w.Write(s)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// config is the whole configuration surface the benchmark depends on.
func (w workload) config(seed int64, spillDir string) stringsort.Config {
	cfg := stringsort.Config{
		P:         pes,
		Algorithm: w.algorithm,
		Transport: w.transport,
		Seed:      uint64(seed),
	}
	if w.memBudget > 0 {
		cfg.MemBudget = w.memBudget
		cfg.SpillDir = spillDir
	}
	return cfg
}

// cliArgs is the same configuration as dss-sort flags.
func (w workload) cliArgs(seed int64, in, out, spillDir string) []string {
	args := []string{
		"-algo", w.algorithm.String(),
		"-p", strconv.Itoa(pes),
		"-seed", strconv.FormatInt(seed, 10),
		"-transport", w.transport.String(),
		"-in", in, "-out", out,
	}
	if w.memBudget > 0 {
		args = append(args, "-mem-budget", strconv.FormatInt(w.memBudget, 10), "-spill-dir", spillDir)
	}
	return args
}
