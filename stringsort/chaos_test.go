package stringsort

import (
	"math/rand"
	"testing"
)

// TestChaosIdentityAcrossSeams is the differential fault-injection pin:
// PDMS and MS run over real loopback TCP under the harshest chaos level —
// which delays frames and reorders them across independent streams —
// under both exchange disciplines (split-phase and the bulk-synchronous
// reference), and every cell must produce byte-identical output and
// bit-identical deterministic statistics compared to the undisturbed run
// of the same configuration.
func TestChaosIdentityAcrossSeams(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential runs many TCP sorts")
	}
	rng := rand.New(rand.NewSource(406))
	inputs := genInputs(rng, 4, 120)
	for _, algo := range []Algorithm{MS, PDMS} {
		for _, blocking := range []bool{false, true} {
			name := algo.String() + "/" + map[bool]string{false: "split", true: "blocking"}[blocking] + "/eager"
			t.Run(name, func(t *testing.T) {
				base := Config{
					Algorithm:        algo,
					Seed:             31,
					Transport:        TransportTCP,
					blockingExchange: blocking,
					Validate:         true,
					Reconstruct:      true,
				}
				runChaosCell(t, inputs, base)
			})
		}
	}
}

// TestChaosIdentityAllFamilies covers the remaining algorithm families at
// the reorder level: every algorithm of the suite keeps its output and
// deterministic statistics when frames arrive late and out of order
// across streams.
func TestChaosIdentityAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential runs many TCP sorts")
	}
	rng := rand.New(rand.NewSource(407))
	inputs := genInputs(rng, 4, 120)
	for _, algo := range []Algorithm{FKMerge, HQuick, MSSimple, PDMSGolomb} {
		t.Run(algo.String(), func(t *testing.T) {
			base := Config{
				Algorithm:   algo,
				Seed:        37,
				Transport:   TransportTCP,
				Validate:    true,
				Reconstruct: true,
			}
			runChaosCell(t, inputs, base)
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
