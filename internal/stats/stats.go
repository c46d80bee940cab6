// Package stats provides per-PE, per-phase accounting of communication
// volume, message counts and local work for the distributed string sorting
// algorithms, together with the α-β machine cost model from Section II of
// the paper (Bingmann, Sanders, Schimek: "Communication-Efficient String
// Sorting", IPDPS 2020).
//
// The paper reports two metrics per experiment: running time and bytes sent
// per string. Communication volume is hardware independent and is counted
// exactly at the send boundary of the message-passing substrate. Running
// time on the original 1280-core InfiniBand cluster cannot be measured
// faithfully on a single host, so the harness additionally computes a
// deterministic model time
//
//	T = Σ_phase [ max_PE(work)/Rate + α·max_PE(messages) + β·max_PE(bytes) ]
//
// which preserves the relative shapes (who wins, where the crossovers fall)
// that the paper's evaluation establishes.
package stats

import (
	"fmt"
	"strings"
)

// Phase identifies an algorithm phase for accounting purposes. Every send,
// receive and unit of local work is attributed to the phase the PE is
// currently in.
type Phase int

// Phases of the distributed string sorting algorithms. They correspond to
// the four steps of Figure 1 of the paper plus the prefix-doubling step
// (1+ε) of PDMS and a catch-all for everything else.
const (
	PhaseOther     Phase = iota // setup, redistribution, verification
	PhaseLocalSort              // Step 1: sequential local sorting
	PhaseDupDetect              // Step 1+ε: distinguishing prefix approximation
	PhasePartition              // Step 2: sampling and splitter selection
	PhaseExchange               // Step 3: all-to-all string exchange
	PhaseMerge                  // Step 4: multiway merging
	NumPhases
)

// String returns the human-readable phase name.
func (ph Phase) String() string {
	switch ph {
	case PhaseOther:
		return "other"
	case PhaseLocalSort:
		return "local_sort"
	case PhaseDupDetect:
		return "dup_detect"
	case PhasePartition:
		return "partition"
	case PhaseExchange:
		return "exchange"
	case PhaseMerge:
		return "merge"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// PhaseCounters accumulates the per-phase totals of one PE.
type PhaseCounters struct {
	BytesSent int64 // payload bytes sent to other PEs (self-sends excluded)
	BytesRecv int64 // payload bytes received from other PEs
	Messages  int64 // number of point-to-point messages sent to other PEs
	Work      int64 // local work units (characters inspected/moved)
}

// WireCounters accumulates the post-codec byte totals of one PE: the bytes
// that actually crossed the fabric after the transport's wire codec ran, as
// opposed to the raw model bytes of PhaseCounters. Without a codec the two
// are equal; with one, Sent/Recv shrink (or, for incompressible frames,
// grow by the per-frame codec header). Wire bytes never feed the α-β model
// time — they are the second accounting channel the figures report
// alongside the paper's raw volume.
type WireCounters struct {
	Sent int64 // post-codec bytes shipped to other PEs (self-sends excluded)
	Recv int64 // post-codec bytes received from other PEs
}

// PE holds the accounting state of a single processing element. A PE value
// is owned by exactly one goroutine while an algorithm runs; it must only be
// read by other goroutines after the machine has finished.
//
// Phases holds the deterministic counters the α-β model time and the
// bytes-per-string figures are computed from; they are bit-identical across
// transports and runs. Wall and Overlap are wall-clock measurements of the
// split-phase overlap model: nondeterministic, never fed into ModelTime,
// and excluded from cross-backend statistics comparisons.
type PE struct {
	Phases [NumPhases]PhaseCounters
	// Wire[ph] counts the post-codec bytes of frames encoded or decoded
	// while ph was the wire-accounting phase. The machine-wide totals are
	// deterministic for a fixed codec (frame encodings are pure functions
	// of their payloads); the per-phase split is attribution-grade only —
	// a split-phase collective drained in a later phase bills its frames'
	// wire bytes there, while the raw counters stay with the posting phase.
	// Compare totals, not per-phase wire values, across runs.
	Wire [NumPhases]WireCounters
	// Wall[ph] is the wall-clock nanoseconds this PE spent with ph as its
	// accounting phase (accumulated at every comm.SetPhase transition).
	Wall [NumPhases]int64
	// Overlap[ph] is the wall-clock nanoseconds of split-phase collective
	// time hidden under compute: for every Pending posted in phase ph, the
	// span from posting to the last drained payload minus the time the PE
	// actually spent blocked waiting on it. Zero for blocking collectives.
	Overlap [NumPhases]int64
	// Cores is the width of the intra-PE work pool this PE ran with, and
	// CPU[ph] the summed busy nanoseconds of all pool workers (caller
	// included) inside parallel regions attributed to phase ph. CPU is the
	// multi-core evidence channel: CPU[ph] > Wall[ph] proves real parallel
	// execution in that phase, since a lone goroutine cannot be busy longer
	// than the wall. Like Wall and Overlap these are measurements — never
	// model inputs, never part of deterministic cross-run comparisons.
	Cores int64
	CPU   [NumPhases]int64
	// SpillBytesWritten, SpillBytesRead and PeakLiveBytes are the gauges of
	// the out-of-core pipeline: bytes the PE's spill pool wrote to page
	// files, bytes it paged back in ahead of the merge cursor, and the
	// high-water mark of metered live arena bytes. Like Wall and Overlap
	// these live on the measured channel — WHAT spills depends on arrival
	// timing, so the values vary run to run and across transports, and they
	// never feed the model time or the deterministic comparisons. All three
	// are zero when no memory budget was configured.
	SpillBytesWritten int64
	SpillBytesRead    int64
	PeakLiveBytes     int64
}

// TotalWire returns the sum of the PE's wire counters over all phases.
func (pe *PE) TotalWire() WireCounters {
	var t WireCounters
	for ph := Phase(0); ph < NumPhases; ph++ {
		t.Sent += pe.Wire[ph].Sent
		t.Recv += pe.Wire[ph].Recv
	}
	return t
}

// Total returns the sum of all phase counters of the PE.
func (pe *PE) Total() PhaseCounters {
	var t PhaseCounters
	for ph := Phase(0); ph < NumPhases; ph++ {
		c := pe.Phases[ph]
		t.BytesSent += c.BytesSent
		t.BytesRecv += c.BytesRecv
		t.Messages += c.Messages
		t.Work += c.Work
	}
	return t
}

// CostModel holds the α-β machine parameters of Section II plus a local
// compute rate. The defaults are calibrated to a 2013-era InfiniBand 4X FDR
// cluster like ForHLR I: a few microseconds of message startup latency,
// roughly 5 GB/s point-to-point bandwidth per node, and a sequential string
// sorting rate in the hundreds of millions of characters per second.
type CostModel struct {
	Alpha float64 // seconds per message (startup latency)
	Beta  float64 // seconds per payload byte
	Rate  float64 // local work units (characters) per second
}

// DefaultModel returns the calibrated default cost model.
func DefaultModel() CostModel {
	return CostModel{
		Alpha: 2e-6,    // 2 µs startup latency
		Beta:  2.5e-10, // 4 GB/s effective bandwidth
		Rate:  250e6,   // 250 M characters per second local work
	}
}

// Report aggregates the accounting of all PEs of one algorithm run. Its
// methods compute the α-β model time, the machine-wide volume figures and
// the two per-phase tables; the rest of the per-PE counters are folded
// into the public statistics by their one consumer, stringsort.
type Report struct {
	PEs   []*PE
	Model CostModel
}

// NewReport creates a report over the given PEs.
func NewReport(pes []*PE, model CostModel) *Report {
	return &Report{PEs: pes, Model: model}
}

// phaseMax returns, for one phase, the maxima over all PEs of the individual
// counters (bottleneck values in the sense of the paper's analysis).
func (r *Report) phaseMax(ph Phase) PhaseCounters {
	var m PhaseCounters
	for _, pe := range r.PEs {
		c := pe.Phases[ph]
		m.BytesSent = max(m.BytesSent, c.BytesSent)
		m.BytesRecv = max(m.BytesRecv, c.BytesRecv)
		m.Messages = max(m.Messages, c.Messages)
		m.Work = max(m.Work, c.Work)
	}
	return m
}

// PhaseTime returns the model time of a single phase: the bottleneck local
// work plus the α-β cost of the bottleneck communication.
func (r *Report) PhaseTime(ph Phase) float64 {
	m := r.phaseMax(ph)
	return float64(m.Work)/r.Model.Rate +
		r.Model.Alpha*float64(m.Messages) +
		r.Model.Beta*float64(max(m.BytesSent, m.BytesRecv))
}

// ModelTime returns the total model running time: the sum of the per-phase
// bottleneck times. Summing per phase (rather than per PE) reflects that
// the phases are separated by collective operations that act as barriers.
func (r *Report) ModelTime() float64 {
	var t float64
	for ph := Phase(0); ph < NumPhases; ph++ {
		t += r.PhaseTime(ph)
	}
	return t
}

// TotalBytesSent returns the sum over all PEs of bytes sent.
func (r *Report) TotalBytesSent() int64 {
	var b int64
	for _, pe := range r.PEs {
		b += pe.Total().BytesSent
	}
	return b
}

// TotalMessages returns the sum over all PEs of messages sent.
func (r *Report) TotalMessages() int64 {
	var m int64
	for _, pe := range r.PEs {
		m += pe.Total().Messages
	}
	return m
}

// BytesPerString returns the average communication volume per input string,
// the metric of the lower panels of Figures 4 and 5 of the paper.
func (r *Report) BytesPerString(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.TotalBytesSent()) / float64(n)
}

// CompressionRatio returns the post-codec bytes that crossed the fabric
// over the raw bytes sent (1.0 means every frame shipped verbatim; below
// 1.0 the codec shrank the traffic). With no raw traffic at all the ratio
// is defined as 1.
func (r *Report) CompressionRatio() float64 {
	raw := r.TotalBytesSent()
	if raw == 0 {
		return 1
	}
	var wire int64
	for _, pe := range r.PEs {
		wire += pe.TotalWire().Sent
	}
	return float64(wire) / float64(raw)
}

// Table formats a per-phase breakdown as an aligned text table: the sums
// over PEs of every phase's counters and the phase's model time. Phases
// with no activity are omitted.
func (r *Report) Table() string {
	var sums [NumPhases]PhaseCounters
	for _, pe := range r.PEs {
		for ph, c := range pe.Phases {
			sums[ph].BytesSent += c.BytesSent
			sums[ph].BytesRecv += c.BytesRecv
			sums[ph].Messages += c.Messages
			sums[ph].Work += c.Work
		}
	}
	var b strings.Builder
	var total PhaseCounters
	fmt.Fprintf(&b, "%-12s %14s %14s %10s %14s %10s\n",
		"phase", "bytes_sent", "bytes_recv", "messages", "work", "time_s")
	for ph, c := range sums {
		total.BytesSent += c.BytesSent
		total.Messages += c.Messages
		total.Work += c.Work
		if c != (PhaseCounters{}) {
			fmt.Fprintf(&b, "%-12s %14d %14d %10d %14d %10.4f\n", Phase(ph),
				c.BytesSent, c.BytesRecv, c.Messages, c.Work, r.PhaseTime(Phase(ph)))
		}
	}
	fmt.Fprintf(&b, "%-12s %14d %14s %10d %14d %10.4f\n",
		"total", total.BytesSent, "", total.Messages, total.Work, r.ModelTime())
	return b.String()
}

// WallTable formats the measured per-phase wall spans, overlap and worker
// CPU time as an aligned text table. Unlike Table, these columns are
// wall-clock measurements and differ run to run; they are reported
// separately so the deterministic table stays comparable across
// transports. The column labels carry the aggregation: wall spans are
// bottleneck values (max over PEs, the total row the largest per-PE sum),
// overlap and CPU summed PE-milliseconds.
func (r *Report) WallTable() string {
	var wall, overlap, cpu [NumPhases]int64
	var maxWall int64
	for _, pe := range r.PEs {
		var peWall int64
		for ph := range wall {
			wall[ph] = max(wall[ph], pe.Wall[ph])
			overlap[ph] += pe.Overlap[ph]
			cpu[ph] += pe.CPU[ph]
			peWall += pe.Wall[ph]
		}
		maxWall = max(maxWall, peWall)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var b strings.Builder
	var totOverlap, totCPU int64
	fmt.Fprintf(&b, "%-12s %14s %16s %14s\n",
		"phase", "wall_ms (max)", "overlap_ms (sum)", "cpu_ms (sum)")
	for ph := range wall {
		totOverlap += overlap[ph]
		totCPU += cpu[ph]
		if wall[ph] != 0 || overlap[ph] != 0 || cpu[ph] != 0 {
			fmt.Fprintf(&b, "%-12s %14.3f %16.3f %14.3f\n",
				Phase(ph), ms(wall[ph]), ms(overlap[ph]), ms(cpu[ph]))
		}
	}
	fmt.Fprintf(&b, "%-12s %14.3f %16.3f %14.3f\n", "total", ms(maxWall), ms(totOverlap), ms(totCPU))
	return b.String()
}
