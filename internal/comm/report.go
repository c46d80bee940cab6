package comm

import (
	"fmt"

	"dss/internal/stats"
	"dss/internal/wire"
)

// countersPerPE is the flattened size of one PE's phase counters: the four
// deterministic counters, the wall span, overlap and worker-CPU
// measurements of the overlap and intra-PE parallelism models, and the two
// wire-byte counters of the codec layer, per phase — plus the pool width,
// the three spill gauges of the out-of-core pipeline, and the three
// failure-recovery gauges of the transport (reconnects, resent frames,
// resent bytes).
const countersPerPE = int(stats.NumPhases)*9 + 7

// AllgatherReport exchanges every PE's accounting snapshot and returns a
// machine-wide report, identical on every member — the SPMD counterpart of
// Machine.Report for runs where each process owns a single Comm (NewComm).
// Every PE's counters are snapshotted before the exchange, so the gather's
// own traffic is excluded from the report: the returned statistics match
// what an in-process Machine.Report would have shown at the same point,
// bit for bit. gid selects the tag namespace of the internal collective and
// must be unused by concurrently live groups.
func AllgatherReport(c *Comm, model stats.CostModel, gid int) *stats.Report {
	c.flushWall() // close the running wall span so it is part of the snapshot
	snap := *c.st // value copy: the collective below mutates the live counters
	vals := make([]uint64, countersPerPE)
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		pc := snap.Phases[ph]
		vals[int(ph)*9+0] = uint64(pc.BytesSent)
		vals[int(ph)*9+1] = uint64(pc.BytesRecv)
		vals[int(ph)*9+2] = uint64(pc.Messages)
		vals[int(ph)*9+3] = uint64(pc.Work)
		vals[int(ph)*9+4] = uint64(snap.Wall[ph])
		vals[int(ph)*9+5] = uint64(snap.Overlap[ph])
		vals[int(ph)*9+6] = uint64(snap.Wire[ph].Sent)
		vals[int(ph)*9+7] = uint64(snap.Wire[ph].Recv)
		vals[int(ph)*9+8] = uint64(snap.CPU[ph])
	}
	vals[int(stats.NumPhases)*9+0] = uint64(snap.Cores)
	vals[int(stats.NumPhases)*9+1] = uint64(snap.SpillBytesWritten)
	vals[int(stats.NumPhases)*9+2] = uint64(snap.SpillBytesRead)
	vals[int(stats.NumPhases)*9+3] = uint64(snap.PeakLiveBytes)
	vals[int(stats.NumPhases)*9+4] = uint64(snap.Reconnects)
	vals[int(stats.NumPhases)*9+5] = uint64(snap.ResentFrames)
	vals[int(stats.NumPhases)*9+6] = uint64(snap.ResentBytes)
	g := NewGroup(c, WorldRanks(c.P()), gid)
	parts := g.Allgatherv(wire.EncodeUint64s(vals))
	pes := make([]*stats.PE, len(parts))
	for i, part := range parts {
		vs, err := wire.DecodeUint64s(part)
		if err != nil || len(vs) != countersPerPE {
			panic(fmt.Sprintf("comm: corrupt stats snapshot from PE %d: %v", i, err))
		}
		pe := &stats.PE{Rank: i}
		for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
			pe.Phases[ph] = stats.PhaseCounters{
				BytesSent: int64(vs[int(ph)*9+0]),
				BytesRecv: int64(vs[int(ph)*9+1]),
				Messages:  int64(vs[int(ph)*9+2]),
				Work:      int64(vs[int(ph)*9+3]),
			}
			pe.Wall[ph] = int64(vs[int(ph)*9+4])
			pe.Overlap[ph] = int64(vs[int(ph)*9+5])
			pe.Wire[ph] = stats.WireCounters{
				Sent: int64(vs[int(ph)*9+6]),
				Recv: int64(vs[int(ph)*9+7]),
			}
			pe.CPU[ph] = int64(vs[int(ph)*9+8])
		}
		pe.Cores = int64(vs[int(stats.NumPhases)*9+0])
		pe.SpillBytesWritten = int64(vs[int(stats.NumPhases)*9+1])
		pe.SpillBytesRead = int64(vs[int(stats.NumPhases)*9+2])
		pe.PeakLiveBytes = int64(vs[int(stats.NumPhases)*9+3])
		pe.Reconnects = int64(vs[int(stats.NumPhases)*9+4])
		pe.ResentFrames = int64(vs[int(stats.NumPhases)*9+5])
		pe.ResentBytes = int64(vs[int(stats.NumPhases)*9+6])
		pes[i] = pe
	}
	c.Release(parts...)
	return stats.NewReport(pes, model)
}
