package stringsort

import (
	"math/rand"
	"testing"
)

// TestChaosIdentityAcrossSeams is the differential fault-injection pin:
// PDMS and MS run over real loopback TCP under the harshest chaos level —
// which kills established connections mid-exchange with partial final
// writes — under both exchange disciplines (split-phase and the
// bulk-synchronous reference), and every
// cell must produce byte-identical output and bit-identical deterministic
// statistics compared to the undisturbed run of the same configuration.
// Each chaos cell must also actually have recovered from at least one
// connection drop (Stats.Reconnects ≥ 1), or the cell proved nothing.
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
// the drop level: every algorithm of the suite survives mid-run connection
// loss with identical output and deterministic statistics.
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

// runChaosCell sorts once undisturbed and once under the "drop" chaos
// level and requires identical output, identical deterministic stats, and
// at least one actual reconnect in the disturbed run.
func runChaosCell(t *testing.T, inputs [][][]byte, base Config) {
	t.Helper()
	want, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("undisturbed: %v", err)
	}
	cfg := base
	cfg.Chaos = "drop"
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
	if got.Stats.Reconnects < 1 {
		t.Fatalf("chaos run recovered zero connection drops (reconnects=%d, resent=%d frames) — the schedule exercised nothing",
			got.Stats.Reconnects, got.Stats.ResentFrames)
	}
	if want.Stats.Reconnects != 0 {
		t.Fatalf("undisturbed run reports %d reconnects", want.Stats.Reconnects)
	}
}

// TestChaosIdentityLocalTransport pins that the decorator is honest on the
// in-process substrate too: no connections exist, so the drop schedule
// degrades to delay/reorder only, and output and deterministic statistics
// still match the undisturbed run exactly.
func TestChaosIdentityLocalTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	inputs := genInputs(rng, 4, 100)
	base := Config{Algorithm: MS, Seed: 41, Validate: true, Reconstruct: true}
	want, err := Sort(inputs, base)
	if err != nil {
		t.Fatalf("undisturbed: %v", err)
	}
	cfg := base
	cfg.Chaos = "drop"
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
	if got.Stats.Reconnects != 0 {
		t.Fatalf("local transport reports %d reconnects", got.Stats.Reconnects)
	}
}
