package stringsort

import (
	"flag"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"dss/internal/input"
)

// TestTuningFlagsBindConfig parses the shared flag set twice: with no
// flag, where every Config field must hold its flag default, and with every
// flag at a non-default value, where every field must hold that value.
// Malformed algorithm, codec and budget values fail the parse.
func TestTuningFlagsBindConfig(t *testing.T) {
	parse := func(args ...string) (Config, *flag.FlagSet, error) {
		var cfg Config
		fs := flag.NewFlagSet("tuning", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterTuningFlags(fs, &cfg)
		return cfg, fs, fs.Parse(args)
	}
	cfg, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{Algorithm: MS, Seed: 1, Codec: "none"}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("defaults: got %+v, want %+v", cfg, want)
	}

	cfg, fs, err := parse(
		"-algo", "pdms-golomb", "-seed", "7", "-oversampling", "9", "-charsample",
		"-eps", "0.5", "-tiebreak", "-randomsample", "-codec", "FLATE", "-validate",
		"-cores", "3", "-mem-budget", "64k", "-spill-dir", "spill", "-trace", "run.json",
		"-net-timeout", "3s",
	)
	if err != nil {
		t.Fatal(err)
	}
	nflags := 0
	fs.VisitAll(func(*flag.Flag) { nflags++ })
	if fs.NFlag() != nflags {
		t.Fatalf("the test sets %d of the %d shared flags", fs.NFlag(), nflags)
	}
	want := Config{
		Algorithm: PDMSGolomb, Seed: 7, Oversampling: 9, CharSampling: true,
		Eps: 0.5, TieBreak: true, RandomSampling: true, Codec: "flate", Validate: true,
		Cores: 3, MemBudget: 64 << 10, SpillDir: "spill", Trace: "run.json",
		NetTimeout: 3 * time.Second,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("set: got %+v, want %+v", cfg, want)
	}

	for _, bad := range [][]string{
		{"-algo", "nope"}, {"-codec", "zip"}, {"-mem-budget", "12x"},
	} {
		if _, _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestTuningKnobsMove pins the scope of every sampling and PDMS knob: on an
// input where the knob must matter, it changes the deterministic
// statistics of exactly the algorithms its Config doc comment names and
// leaves the others bit-identical.
func TestTuningKnobsMove(t *testing.T) {
	const p = 4
	skew := make([][][]byte, p)
	dups := make([][][]byte, p)
	for pe := range skew {
		skew[pe] = input.DNSkewed(input.DNConfig{StringsPerPE: 500, Length: 100, Ratio: 0.5, Seed: 1}, pe, p)
		for i := 0; i < 400; i++ {
			dups[pe] = append(dups[pe], []byte{'a' + byte(i%3)})
		}
	}
	sampling := []Algorithm{MSSimple, MS, PDMS, PDMSGolomb}
	knobs := []struct {
		name   string
		set    func(*Config)
		inputs [][][]byte
		moves  []Algorithm
	}{
		{"Oversampling", func(c *Config) { c.Oversampling = 7 }, skew, sampling},
		{"CharSampling", func(c *Config) { c.CharSampling = true }, skew, sampling},
		{"Eps", func(c *Config) { c.Eps = 2 }, skew, []Algorithm{PDMS, PDMSGolomb}},
		{"TieBreak", func(c *Config) { c.TieBreak = true }, dups, []Algorithm{MSSimple, MS}},
		{"RandomSampling", func(c *Config) { c.RandomSampling = true }, skew, []Algorithm{MSSimple, MS}},
	}
	run := func(inputs [][][]byte, cfg Config) Stats {
		t.Helper()
		res, err := Sort(inputs, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		return deterministic(res.Stats)
	}
	for _, k := range knobs {
		for _, algo := range Algorithms {
			base := Config{Algorithm: algo, Seed: 1, Validate: true}
			cfg := base
			k.set(&cfg)
			moved := run(k.inputs, cfg) != run(k.inputs, base)
			if want := slices.Contains(k.moves, algo); moved != want {
				t.Errorf("%s on %v: stats moved = %v, want %v", k.name, algo, moved, want)
			}
		}
	}
}
