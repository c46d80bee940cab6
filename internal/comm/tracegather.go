// Trace aggregation: after a run — one process per rank or all ranks in
// one process alike — every rank ships its serialized trace buffer to rank
// 0, which writes the merged timeline, with a clock-offset estimation
// round first so the per-host timestamps line up in it.
//
// Clock model. OS processes — possibly on different hosts — stamp events
// with their own wall clocks. GatherTrace estimates each rank's offset to
// rank 0 with Cristian's algorithm: a few ping rounds against rank 0,
// each sampling (t0, rank 0's clock, t1); the sample with the smallest
// round-trip bounds the error best, and offset = rootTS − (t0+t1)/2 under
// the symmetric-delay assumption. On one host (loopback TCP, the tests)
// the clocks are identical and the estimate collapses to ~0; across hosts
// it aligns the timelines to within the minimum RTT.
//
// Ordering. Call GatherTrace strictly AFTER AllgatherReport: its pings
// and buffer exchange go through the normal accounting boundary, and the
// deterministic statistics must be snapshotted before this traffic — that
// is how the model stats stay bit-identical with tracing on or off.
package comm

import (
	"fmt"
	"time"

	"dss/internal/trace"
	"dss/internal/wire"
)

// clockPingRounds is how many offset samples each rank takes against
// rank 0; the minimum-RTT sample wins.
const clockPingRounds = 5

// estimateClockOffset measures this rank's wall-clock offset to rank 0 in
// nanoseconds (0 on rank 0 itself). Rank 0 serves the ranks in order, so
// the message pattern is deterministic. tag selects a fresh tag in the
// caller's group-id namespace.
func estimateClockOffset(c *Comm, tag int) int64 {
	if c.P() == 1 {
		return 0
	}
	if c.Rank() == 0 {
		buf := make([]uint64, 1)
		for src := 1; src < c.P(); src++ {
			for round := 0; round < clockPingRounds; round++ {
				ping := c.Recv(src, tag)
				c.Release(ping)
				buf[0] = uint64(time.Now().UnixNano())
				c.Send(src, tag, wire.EncodeUint64s(buf))
			}
		}
		return 0
	}
	var best int64
	bestRTT := int64(-1)
	for round := 0; round < clockPingRounds; round++ {
		t0 := time.Now().UnixNano()
		c.Send(0, tag, nil)
		reply := c.Recv(0, tag)
		t1 := time.Now().UnixNano()
		vs, err := wire.DecodeUint64s(reply)
		if err != nil || len(vs) != 1 {
			panic(fmt.Sprintf("comm: corrupt clock ping reply: %v", err))
		}
		c.Release(reply)
		rootTS := int64(vs[0])
		if rtt := t1 - t0; bestRTT < 0 || rtt < bestRTT {
			bestRTT = rtt
			best = rootTS - (t0+t1)/2
		}
	}
	return best
}

// GatherTrace collects every rank's trace buffer on rank 0, the one rank
// that writes the timeline, and returns them there, rank-ordered, with each
// buffer's OffsetNS set to the estimated correction onto rank 0's clock;
// every other rank gets nil. All ranks of the world must call it
// collectively (rec may differ in capacity but must be non-nil
// everywhere). gid selects the tag namespace and must be unused by
// concurrently live groups.
func GatherTrace(c *Comm, rec *trace.Recorder, gid int) []*trace.Buffer {
	g := NewGroup(c, WorldRanks(c.P()), gid)
	// offset is rank0Clock − localClock, so TS + OffsetNS lands each local
	// stamp in rank 0's clock domain.
	offset := estimateClockOffset(c, g.nextTag())
	buf := rec.Snapshot()
	buf.OffsetNS = offset
	parts := g.Gatherv(0, buf.Marshal())
	if parts == nil {
		return nil
	}
	bufs := make([]*trace.Buffer, len(parts))
	for i, part := range parts {
		b, err := trace.UnmarshalBuffer(part)
		if err != nil {
			panic(fmt.Sprintf("comm: corrupt trace buffer from PE %d: %v", i, err))
		}
		bufs[i] = b
	}
	return bufs
}
