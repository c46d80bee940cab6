package stats

import (
	"strings"
	"testing"
)

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseOther:     "other",
		PhaseLocalSort: "local_sort",
		PhaseDupDetect: "dup_detect",
		PhasePartition: "partition",
		PhaseExchange:  "exchange",
		PhaseMerge:     "merge",
	}
	for ph, name := range want {
		if ph.String() != name {
			t.Fatalf("%d.String() = %q, want %q", ph, ph.String(), name)
		}
	}
}

func TestPETotal(t *testing.T) {
	pe := &PE{}
	pe.Phases[PhaseExchange] = PhaseCounters{BytesSent: 150, BytesRecv: 70, Messages: 2}
	pe.Phases[PhaseMerge] = PhaseCounters{Work: 1000}
	tot := pe.Total()
	if tot.BytesSent != 150 || tot.BytesRecv != 70 || tot.Messages != 2 || tot.Work != 1000 {
		t.Fatalf("total = %+v", tot)
	}
}

func buildReport() *Report {
	pes := []*PE{{}, {}, {}}
	pes[0].Phases[PhaseExchange] = PhaseCounters{BytesSent: 1000, Messages: 10, Work: 500}
	pes[1].Phases[PhaseExchange] = PhaseCounters{BytesSent: 3000, Messages: 5, Work: 100}
	pes[2].Phases[PhaseMerge] = PhaseCounters{Work: 10_000_000}
	return NewReport(pes, CostModel{Alpha: 1e-6, Beta: 1e-9, Rate: 1e8})
}

func TestPhaseTimeUsesBottlenecks(t *testing.T) {
	r := buildReport()
	// Exchange: max bytes 3000, max msgs 10, max work 500.
	want := 500.0/1e8 + 1e-6*10 + 1e-9*3000
	got := r.PhaseTime(PhaseExchange)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("PhaseTime = %g, want %g", got, want)
	}
	// Merge is dominated by PE 2's work.
	if mt := r.PhaseTime(PhaseMerge); mt < 0.09 || mt > 0.11 {
		t.Fatalf("merge time = %g, want ~0.1", mt)
	}
}

func TestModelTimeIsSumOfPhases(t *testing.T) {
	r := buildReport()
	var sum float64
	for ph := Phase(0); ph < NumPhases; ph++ {
		sum += r.PhaseTime(ph)
	}
	if r.ModelTime() != sum {
		t.Fatalf("ModelTime %g != Σ phases %g", r.ModelTime(), sum)
	}
}

func TestAggregates(t *testing.T) {
	r := buildReport()
	if r.TotalBytesSent() != 4000 {
		t.Fatalf("TotalBytesSent = %d", r.TotalBytesSent())
	}
	if r.TotalMessages() != 15 {
		t.Fatalf("TotalMessages = %d", r.TotalMessages())
	}
	if bps := r.BytesPerString(400); bps != 10 {
		t.Fatalf("BytesPerString = %g", bps)
	}
	if bps := r.BytesPerString(0); bps != 0 {
		t.Fatalf("BytesPerString(0) = %g", bps)
	}
}

func TestTableRendering(t *testing.T) {
	r := buildReport()
	table := r.Table()
	for _, want := range []string{"exchange", "merge", "total", "bytes_sent"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// Phases with no activity are omitted.
	if strings.Contains(table, "dup_detect") {
		t.Fatalf("idle phase rendered:\n%s", table)
	}
}

func TestDefaultModelPlausible(t *testing.T) {
	m := DefaultModel()
	if m.Alpha <= 0 || m.Beta <= 0 || m.Rate <= 0 {
		t.Fatalf("non-positive model constants: %+v", m)
	}
	// Latency of one message must exceed the per-byte cost by orders of
	// magnitude (α ≫ β), the regime all the algorithm tradeoffs assume.
	if m.Alpha < 1000*m.Beta {
		t.Fatalf("α/β ratio implausible: %+v", m)
	}
}
