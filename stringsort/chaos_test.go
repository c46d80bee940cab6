package stringsort

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestChaosIdentityAcrossSeams is the differential fault-injection pin for
// MS and PDMS, whose Step-3 exchange carries LCP-compressed (and, for
// PDMS, prefix-truncated) buckets: over real loopback TCP under the
// harshest chaos level — which delays frames and reorders them across
// independent streams — each must produce byte-identical output and
// bit-identical deterministic statistics compared to the undisturbed run,
// on each of two inputs.
func TestChaosIdentityAcrossSeams(t *testing.T) {
	runChaosFamilies(t, []Algorithm{MS, PDMS})
}

// TestChaosIdentityAllFamilies is the same differential for the remaining
// algorithm families.
func TestChaosIdentityAllFamilies(t *testing.T) {
	runChaosFamilies(t, []Algorithm{FKMerge, HQuick, MSSimple, PDMSGolomb})
}

// runChaosFamilies runs one chaos cell per algorithm and input, as the
// subtests <algo>/seed=31 (rng-406 input) and <algo>/seed=37 (rng-407).
func runChaosFamilies(t *testing.T, algos []Algorithm) {
	if testing.Short() {
		t.Skip("chaos differential runs many TCP sorts")
	}
	cases := []struct {
		inputs [][][]byte
		seed   uint64
	}{
		{genInputs(rand.New(rand.NewSource(406)), 4, 120), 31},
		{genInputs(rand.New(rand.NewSource(407)), 4, 120), 37},
	}
	for _, algo := range algos {
		t.Run(algo.String(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
					runChaosCell(t, tc.inputs, Config{
						Algorithm:   algo,
						Seed:        tc.seed,
						Transport:   TransportTCP,
						Validate:    true,
						Reconstruct: true,
					})
				})
			}
		})
	}
}

// runChaosCell sorts once undisturbed and once under the "reorder" chaos
// level and requires identical output and identical deterministic stats.
func runChaosCell(t *testing.T, inputs [][][]byte, base Config) {
	t.Helper()
	want, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("undisturbed: %v", err)
	}
	cfg := base
	cfg.Chaos = "reorder"
	cfg.ChaosSeed = 0xD00D
	got, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatalf("under chaos: %v", err)
	}
	if !equalOutputs(sortOutputs(want), sortOutputs(got)) {
		t.Fatalf("output differs under chaos")
	}
	if deterministic(want.Stats) != deterministic(got.Stats) {
		t.Fatalf("deterministic statistics differ under chaos:\nclean: %+v\nchaos: %+v",
			want.Stats, got.Stats)
	}
}

// TestChaosIdentityLocalTransport pins that the decorator is honest on the
// in-process substrate too: output and deterministic statistics match the
// undisturbed run exactly.
func TestChaosIdentityLocalTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	inputs := genInputs(rng, 4, 100)
	base := Config{Algorithm: MS, Seed: 41, Validate: true, Reconstruct: true}
	want, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("undisturbed: %v", err)
	}
	cfg := base
	cfg.Chaos = "reorder"
	cfg.ChaosSeed = 7
	got, err := Sort(inputs, cfg)
	if err != nil {
		t.Fatalf("under chaos: %v", err)
	}
	if !equalOutputs(sortOutputs(want), sortOutputs(got)) {
		t.Fatal("output differs under chaos on the local transport")
	}
	if deterministic(want.Stats) != deterministic(got.Stats) {
		t.Fatal("deterministic statistics differ under chaos on the local transport")
	}
}
