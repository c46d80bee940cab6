package comm

import (
	"fmt"

	"dss/internal/stats"
	"dss/internal/wire"
)

// eachCounter calls f on every counter of pe in the snapshot's fixed wire
// order: per phase the four deterministic counters, the wall span, overlap
// and worker-CPU measurements of the overlap and intra-PE parallelism
// models and the two wire-byte counters of the codec layer — then the
// pool width and the three spill gauges of the out-of-core pipeline.
// Encoder and decoder both walk this one list.
func eachCounter(pe *stats.PE, f func(*int64)) {
	for ph := range pe.Phases {
		c := &pe.Phases[ph]
		for _, v := range [...]*int64{&c.BytesSent, &c.BytesRecv, &c.Messages, &c.Work,
			&pe.Wall[ph], &pe.Overlap[ph], &pe.Wire[ph].Sent, &pe.Wire[ph].Recv, &pe.CPU[ph]} {
			f(v)
		}
	}
	for _, v := range [...]*int64{&pe.Cores, &pe.SpillBytesWritten, &pe.SpillBytesRead, &pe.PeakLiveBytes} {
		f(v)
	}
}

// AllgatherReport exchanges every PE's accounting snapshot and returns a
// machine-wide report, identical on every member, together with the sum of
// the PEs' n (their input string counts, which ride along as one more
// word). Every PE's counters are snapshotted before the exchange, so the
// gather's own traffic is excluded from the report: the returned
// statistics match what an in-process Machine.Report would have shown at
// the same point, bit for bit. gid selects the tag namespace of the
// internal collective and must be unused by concurrently live groups.
func AllgatherReport(c *Comm, model stats.CostModel, gid int, n int64) (*stats.Report, int64) {
	c.flushWall() // close the running wall span so it is part of the snapshot
	snap := *c.st // value copy: the collective below mutates the live counters
	w := wire.NewBuffer(512)
	eachCounter(&snap, func(v *int64) { w.Uvarint(uint64(*v)) })
	w.Uvarint(uint64(n))
	g := NewGroup(c, WorldRanks(c.P()), gid)
	parts := g.Allgatherv(w.Bytes())
	pes := make([]stats.PE, len(parts))
	ptrs := make([]*stats.PE, len(parts))
	var total int64
	for i, part := range parts {
		r := wire.NewReader(part)
		var err error
		eachCounter(&pes[i], func(v *int64) {
			u, rerr := r.Uvarint()
			if err == nil {
				err = rerr
			}
			*v = int64(u)
		})
		local, rerr := r.Uvarint()
		if err != nil || rerr != nil || r.Remaining() != 0 {
			panic(fmt.Sprintf("comm: corrupt stats snapshot from PE %d", i))
		}
		ptrs[i] = &pes[i]
		total += int64(local)
	}
	c.Release(parts...)
	return stats.NewReport(ptrs, model), total
}
