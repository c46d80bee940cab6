package stringsort

import (
	"testing"

	"dss/internal/input"
)

// TestSplitPhaseReportsOverlap is the acceptance assertion of the overlap
// model: the split-phase seam must measure overlap-ms > 0 — communication
// time hidden under the decode of runs that arrived earlier. The overlap
// span honestly ends at the LAST ARRIVAL, so a perfectly balanced workload
// on the instant in-process transport can legitimately report ~0; the test
// therefore skews the per-PE input sizes heavily. The slow PEs encode and
// post their buckets long after the fast PEs posted theirs, and the fast
// PEs decode the runs that already landed while the stragglers' buckets
// are still in flight — exactly the wall-clock win the refactor exists
// for, and decode of thousands of strings is far above clock resolution.
func TestSplitPhaseReportsOverlap(t *testing.T) {
	const p, length = 4, 64
	sizes := []int{500, 1000, 4000, 8000} // heavy straggler skew
	inputs := make([][][]byte, p)
	for pe := 0; pe < p; pe++ {
		inputs[pe] = input.Random(sizes[pe], length, 26, pe, p, 99)
	}
	for _, algo := range []Algorithm{MS, PDMS} {
		// The measurement depends on real goroutine timing, so a pathological
		// scheduler (single-core CI under -race) could serialize one run into
		// zero measured overlap; a few attempts make that vanishingly
		// unlikely without weakening the assertion. The scheduler-proof
		// anchor of the same invariant is comm's
		// TestOverlapCreditedForHiddenComm.
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			res, err := Sort(inputs, Config{Algorithm: algo, Seed: 7})
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			if res.Stats.WallMS <= 0 {
				t.Fatalf("%v: no wall spans measured", algo)
			}
			ok = res.Stats.OverlapMS > 0
		}
		if !ok {
			t.Fatalf("%v: split-phase exchange hid no communication in any attempt; "+
				"the Step-3 exchange is not overlapping Step-4 decoding", algo)
		}
	}
}
