// Chunked split-phase alltoallv: the transport side of the budget seam.
// IAlltoallvChunked ships every outgoing bucket as a SEQUENCE of bounded
// frames instead of one message, so the receiver never holds more than one
// frame of a bucket it has no room for: each arriving fragment is fed to an
// incremental run reader or diverted to a page file, and the sink merge
// starts once the first head of every run is decodable.
//
// Accounting model. Chunking is transport-level pipelining of ONE logical
// message, like TCP segmentation below MPI: the α-β model (and the
// "bytes per string" figures) bill each bucket exactly as the un-chunked
// IAlltoallv does — its full payload size and ONE message, attributed to
// the phase current at post time on the send side and billed to that same
// phase as the fragments drain on the receive side. The per-frame flag
// byte is framing overhead below the accounting boundary (the wire-codec
// decorator meters it into the wire counters, where it honestly belongs);
// the deterministic statistics are therefore bit-identical to the eager
// seam by construction, which the differential suite asserts end to end.
//
// Overlap model. A ChunkPending measures posting→last-arrival minus
// blocked time exactly like Pending: time the PE spent decoding and
// merging between frame arrivals is communication hidden under compute.
// Completion additionally stamps stats.PE.ExchangeDoneNS so the merge-start
// milestone (stats.PE.MergeStartNS, stamped by the sink merge's first
// output) can be compared against the last arrival.
package comm

import (
	"fmt"
	"sort"
	"time"

	"dss/internal/stats"
	"dss/internal/trace"
)

// DefaultStreamChunk is the frame payload bound of the chunked exchange
// when the caller does not pick one: large enough to amortize per-frame
// transport costs, small enough that a multi-kilobyte run yields several
// decode opportunities before it has fully arrived.
const DefaultStreamChunk = 8 << 10

// Frame flags of the chunked exchange: every physical frame carries one
// leading flag byte marking whether it completes its bucket.
const (
	chunkMore byte = 0
	chunkLast byte = 1
)

// ChunkPending is a chunked split-phase alltoallv in flight. Like Pending
// it is confined to the PE goroutine that posted it. Frames of one member
// are delivered in order (transport non-overtaking); across members they
// surface in arrival order.
type ChunkPending struct {
	g      *Group
	tag    int
	phase  stats.Phase // accounting phase captured at post time
	posted time.Time
	waited time.Duration
	// lastArrival is the delivery stamp of the latest frame (posted for the
	// self part); the overlap span ends here, as in Pending.
	lastArrival time.Time

	self      []byte // copy of the caller's own part, available immediately
	done      []bool // per member: full bucket delivered
	remaining int
	srcs      []int // scratch for the undrained-source list
	// noOverlap suppresses the overlap credit and the milestone stamp,
	// like the blocking veneers of the eager collectives (Alltoallv =
	// IAlltoallv + Wait): a caller that drains the whole exchange right
	// after posting hides no communication by definition, and must report
	// the same zero overlap the eager blocking seam reports.
	noOverlap bool
}

// NoOverlapCredit marks the exchange as bulk-synchronous for the overlap
// model: no overlap is credited and the exchange-done milestone stays
// unset (so no merge lead is reported either). Call it before the first
// RecvChunk; the deterministic accounting is unaffected.
func (pd *ChunkPending) NoOverlapCredit() { pd.noOverlap = true }

// IAlltoallvChunked posts a personalized all-to-all exchange delivered in
// bounded frames: parts[i] is the payload for group member i, shipped as
// ⌈len/chunkSize⌉ frames (at least one, so empty buckets still signal
// completion). chunkSize ≤ 0 selects DefaultStreamChunk. All outgoing
// frames are sent before it returns (sends are eager and never block); the
// incoming fragments are drained with RecvChunk. The deterministic
// accounting is identical, bucket for bucket, to IAlltoallv(parts).
func (g *Group) IAlltoallvChunked(parts [][]byte, chunkSize int) *ChunkPending {
	n := len(g.ranks)
	if len(parts) != n {
		panic(fmt.Sprintf("comm: alltoallv needs %d parts, got %d", n, len(parts)))
	}
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	g.c.tr.Instant(trace.TrackControl, "IAlltoallvChunked post", 0, 0)
	now := time.Now()
	pd := &ChunkPending{
		g:           g,
		tag:         g.nextTag(),
		phase:       g.c.phase,
		posted:      now,
		lastArrival: now,
		done:        make([]bool, n),
		remaining:   n,
	}
	pd.self = append([]byte(nil), parts[g.myIdx]...)
	frame := make([]byte, 0, chunkSize+1)
	for i := 1; i < n; i++ {
		idx := (g.myIdx + i) % n
		dst := g.ranks[idx]
		// One logical message: bill the whole bucket up front (through the
		// same accounting home every collective uses), then ship the
		// frames below the accounting boundary.
		g.c.accountSendAs(pd.phase, dst, len(parts[idx]))
		rest := parts[idx]
		for {
			chunk := rest
			flag := chunkLast
			if len(chunk) > chunkSize {
				chunk, flag = rest[:chunkSize], chunkMore
			}
			rest = rest[len(chunk):]
			frame = append(append(frame[:0], flag), chunk...)
			g.c.tr.Instant(trace.TrackControl, "frame-send", int64(len(chunk)), int64(dst))
			g.c.t.Send(dst, pd.tag, frame)
			if flag == chunkLast {
				break
			}
		}
	}
	return pd
}

// RecvChunk blocks until the next frame of the exchange is available and
// returns its payload fragment together with the sending member's group
// index; last marks the final fragment of that member's bucket. The PE's
// own part is delivered first, as a single fragment; after that, fragments
// surface in arrival order across members and in send order within one
// member. chunk aliases frame, the whole transport buffer backing it:
// consume (copy out of) chunk, then Release(frame) — releasing the FRAME
// keeps the buffer in its original pool size class, which the flag-
// stripped sub-slice would drop out of. ok=false reports that every
// member's bucket has been fully delivered.
func (pd *ChunkPending) RecvChunk() (idx int, chunk, frame []byte, last, ok bool) {
	if pd.remaining == 0 {
		return -1, nil, nil, false, false
	}
	if !pd.done[pd.g.myIdx] {
		pd.finishMember(pd.g.myIdx)
		return pd.g.myIdx, pd.self, pd.self, true, true
	}
	srcs := pd.undrained()
	var src int
	if pd.noOverlap {
		src, frame, _ = pd.g.c.t.RecvAny(srcs, pd.tag)
	} else {
		t0 := time.Now()
		var arrived time.Time
		src, frame, arrived = pd.g.c.t.RecvAny(srcs, pd.tag)
		// Blocked time counts only up to the frame's ARRIVAL (see
		// Pending.recvAny for why scheduler wake-up latency is excluded).
		if arrived.After(t0) {
			pd.waited += arrived.Sub(t0)
		}
		if arrived.After(pd.lastArrival) {
			pd.lastArrival = arrived
		}
	}
	return pd.deliverFrame(src, frame)
}

// undrained returns the ranks whose buckets are still incomplete.
func (pd *ChunkPending) undrained() []int {
	if pd.srcs == nil {
		pd.srcs = make([]int, 0, pd.remaining)
	}
	srcs := pd.srcs[:0]
	for i, d := range pd.done {
		if !d {
			srcs = append(srcs, pd.g.ranks[i])
		}
	}
	return srcs
}

// deliverFrame performs the shared receive tail: flag parsing, accounting,
// and completion bookkeeping for one received frame.
func (pd *ChunkPending) deliverFrame(src int, frame []byte) (idx int, chunk []byte, frameOut []byte, last, ok bool) {
	if len(frame) == 0 {
		panic(fmt.Sprintf("comm: empty chunked-exchange frame from rank %d", src))
	}
	last = frame[0] == chunkLast
	chunk = frame[1:]
	pd.g.c.tr.Instant(trace.TrackControl, "frame-recv", int64(len(chunk)), int64(src))
	pd.g.c.accountRecvAs(pd.phase, src, len(chunk))
	idx = sort.SearchInts(pd.g.ranks, src)
	if last {
		pd.finishMember(idx)
	}
	return idx, chunk, frame, last, true
}

// finishMember marks one member's bucket fully delivered and, when it was
// the last, credits the overlap and stamps the exchange-done milestone
// (both suppressed for a bulk-synchronous exchange, see NoOverlapCredit).
func (pd *ChunkPending) finishMember(idx int) {
	pd.done[idx] = true
	pd.remaining--
	if pd.remaining == 0 && !pd.noOverlap {
		if ov := pd.lastArrival.Sub(pd.posted) - pd.waited; ov > 0 {
			pd.g.c.st.Overlap[pd.phase] += ov.Nanoseconds()
		}
		pd.g.c.st.ExchangeDoneNS = pd.lastArrival.UnixNano()
		pd.g.c.tr.Instant(trace.TrackControl, "exchange-done", 0, 0)
	}
}
