package stringsort

import (
	"testing"

	"dss/internal/stats"
)

// statsReport builds a 3-PE report with a distinct non-zero value in every
// counter of every phase. The (pe+ph)%3 term moves each phase's largest
// value to a different PE, so a per-phase maximum, the maximum of per-PE
// totals and the sum of per-phase maxima all differ.
func statsReport() *stats.Report {
	pes := make([]*stats.PE, 3)
	for i := range pes {
		pe := &stats.PE{}
		for ph := 0; ph < int(stats.NumPhases); ph++ {
			v := func(k int) int64 {
				return int64(k+1)*1_000_000 + int64((i+ph)%3)*100_000 + int64(ph)*1_000 + int64(i)*10
			}
			pe.Phases[ph] = stats.PhaseCounters{BytesSent: v(0), BytesRecv: v(1), Messages: v(2), Work: v(3)}
			pe.Wire[ph] = stats.WireCounters{Sent: v(4), Recv: v(5)}
			pe.Wall[ph], pe.Overlap[ph], pe.CPU[ph] = v(6), v(7), v(8)
		}
		pe.Cores = []int64{3, 4, 2}[i]
		pe.SpillBytesWritten = 11_000 + int64(i)
		pe.SpillBytesRead = 12_000 + int64(i)
		pe.PeakLiveBytes = []int64{13_300, 13_100, 13_200}[i]
		pes[i] = pe
	}
	return stats.NewReport(pes, stats.CostModel{Alpha: 1e-6, Beta: 1e-9, Rate: 1e8})
}

// TestStatsFromReport pins every Stats field and both tables of a
// hand-built report by literal value, so a change to how the per-PE
// counters are folded into Stats cannot move a number unnoticed. It also
// holds the checks of the report aggregates: the bottleneck send volume,
// the total work and the work imbalance (1 without PEs or work), and that
// idle phases are left out of both tables.
func TestStatsFromReport(t *testing.T) {
	want := Stats{
		Strings:        1000,
		ModelTime:      19.480425659999998,
		BytesSent:      19845180,
		BytesPerString: 19845.18,
		MaxBytesSent:   6615120,
		MaxBytesRecv:   12615120,
		MeanBytesRecv:  1.261506e+07,
		Messages:       55845180,
		Work:           73845180,
		Imbalance:      1.000002437532145,
		PhaseTable: `phase            bytes_sent     bytes_recv   messages           work     time_s
other               3300030        6300030    9300030       12300030     3.2442
local_sort          3303030        6303030    9303030       12303030     3.2452
dup_detect          3306030        6306030    9306030       12306030     3.2462
partition           3309030        6309030    9309030       12309030     3.2473
exchange            3312030        6312030    9312030       12312030     3.2483
merge               3315030        6315030    9315030       12315030     3.2493
total              19845180                  55845180       73845180    19.4804
`,
		WireBytes:          91845180,
		WireBytesPerString: 91845.18,
		CompressionRatio:   4.628085006031691,
		OverlapMS:          145.84518,
		MaxOverlapMS:       48.61512,
		WallMS:             42.61512,
		WallTable: `phase         wall_ms (max) overlap_ms (sum)   cpu_ms (sum)
other                 7.200           24.300         27.300
local_sort            7.201           24.303         27.303
dup_detect            7.202           24.306         27.306
partition             7.203           24.309         27.309
exchange              7.204           24.312         27.312
merge                 7.205           24.315         27.315
total                42.615          145.845        163.845
`,
		Cores:             4,
		CPUMS:             163.84518,
		MergeWallMS:       7.205,
		MergeCPUMS:        27.31503,
		PeakMemBytes:      13300,
		SpillBytesWritten: 33003,
		SpillBytesRead:    36003,
	}
	if got := statsFromReport(statsReport(), 1000); got != want {
		t.Errorf("3 PEs:\n got %#v\nwant %#v", got, want)
	}

	// No PEs: every sum and maximum is 0, the ratios and the pool width
	// fall back to 1, and both tables keep their header and total row.
	wantEmpty := Stats{
		Imbalance: 1,
		PhaseTable: `phase            bytes_sent     bytes_recv   messages           work     time_s
total                     0                         0              0     0.0000
`,
		CompressionRatio: 1,
		WallTable: `phase         wall_ms (max) overlap_ms (sum)   cpu_ms (sum)
total                 0.000            0.000          0.000
`,
		Cores: 1,
	}
	if got := statsFromReport(stats.NewReport(nil, stats.DefaultModel()), 0); got != wantEmpty {
		t.Errorf("no PEs:\n got %#v\nwant %#v", got, wantEmpty)
	}
	// PEs that did no work are perfectly balanced, and both tables omit
	// the phases in which no PE did anything.
	idle := []*stats.PE{{}, {}}
	idle[1].Phases[stats.PhaseExchange] = stats.PhaseCounters{BytesSent: 10, BytesRecv: 20, Messages: 1}
	idle[0].Wall[stats.PhaseMerge] = 2_000_000
	got := statsFromReport(stats.NewReport(idle, stats.DefaultModel()), 10)
	if got.Imbalance != 1 {
		t.Errorf("idle PEs: Imbalance = %v, want 1", got.Imbalance)
	}
	wantPhase := `phase            bytes_sent     bytes_recv   messages           work     time_s
exchange                 10             20          1              0     0.0000
total                    10                         1              0     0.0000
`
	wantWall := `phase         wall_ms (max) overlap_ms (sum)   cpu_ms (sum)
merge                 2.000            0.000          0.000
total                 2.000            0.000          0.000
`
	if got.PhaseTable != wantPhase || got.WallTable != wantWall {
		t.Errorf("idle phases rendered:\n%s%s", got.PhaseTable, got.WallTable)
	}
}
