// Split-phase (staged) personalized all-to-all. IAlltoallvStaged opens the
// exchange and returns a Pending handle; the caller hands each OTHER
// member's part over with Post the moment it is ready (eager sends never
// block), overlaps local compute with the in-flight communication, and
// drains the incoming parts in arrival order with PollAny. The caller's own
// part never enters the exchange: it is neither posted nor yielded. The
// blocking Alltoallv of group.go is a plain loop with the same messages and
// the same billing.
//
// Accounting model. ALL traffic of a staged exchange — every Post and
// every receive — is attributed to the accounting phase that was current
// when the exchange was OPENED, no matter which phase the PE is in when it
// posts or drains. This is what keeps the deterministic statistics (model
// time, bytes per string) independent of how much overlap the caller
// achieves: an exchange opened in the exchange phase bills to the exchange
// phase even when its runs are drained during merging.
//
// Overlap model. Each Pending measures, in wall-clock time, the span from
// opening to the LAST ARRIVAL of its payloads and subtracts the time the
// PE actually spent blocked waiting for deliveries; the difference — the
// compute executed while communication was genuinely still in flight — is
// credited to stats.PE.Overlap of the posting phase. Compute after the
// last arrival earns nothing (there is no communication left to hide), so
// a balanced workload on an instant transport honestly reports ~0. These
// are measurements (nondeterministic), reported alongside — never inside —
// the α-β model time.
package comm

import (
	"fmt"
	"sort"
	"time"

	"dss/internal/stats"
	"dss/internal/trace"
)

// The trace labels of the exchange's lifecycle instants.
const (
	postName = "IAlltoallv post"
	doneName = "IAlltoallv done"
)

// Pending is a staged all-to-all exchange of the other members' parts in
// flight. It is confined to the PE goroutine that opened it, like the Comm
// itself. Each payload PollAny hands out is owned by the caller (and
// releasable via Comm.Release).
type Pending struct {
	g      *Group
	tag    int
	phase  stats.Phase // accounting phase captured when the exchange opened
	posted time.Time
	waited time.Duration // total time spent blocked on this collective
	// lastArrival is the latest known moment a payload of this collective
	// became receivable (transport delivery stamp). The overlap span ends
	// HERE, not at the last drain: compute executed after everything has
	// arrived hides nothing.
	lastArrival time.Time

	// Outgoing parts still owed via Post; draining is rejected until every
	// other member's part has been posted.
	toPost    int
	postedIdx []bool
	undrained []int // global ranks of the members whose part is still to come
}

// IAlltoallvStaged opens a personalized all-to-all exchange with the
// outgoing parts still to come: each other member's part is handed over
// individually with Post, the moment it is ready, and the incoming parts
// are drained with PollAny. The parallel Step-3 encoder posts each bucket
// as its encoder task finishes instead of holding the whole exchange back
// for the slowest bucket. Whatever the posting order, the same bytes and
// message counts as Alltoallv are billed per member, to the phase captured
// HERE. The caller's own index is outside the exchange from the start:
// it is never posted and never yielded.
func (g *Group) IAlltoallvStaged() *Pending {
	g.c.tr.Instant(trace.TrackControl, postName, 0, 0)
	now := time.Now()
	n := len(g.ranks)
	pd := &Pending{
		g:      g,
		tag:    g.nextTag(),
		phase:  g.c.phase,
		posted: now,
		// A single-member exchange is "delivered" when it opens; real
		// receives push this forward.
		lastArrival: now,
		toPost:      n - 1,
		postedIdx:   make([]bool, n),
		undrained:   make([]int, 0, n-1),
	}
	for i, r := range g.ranks {
		if i != g.myIdx {
			pd.undrained = append(pd.undrained, r)
		}
	}
	if n == 1 {
		pd.complete() // nothing to exchange
	}
	return pd
}

// Post hands group member idx's outgoing part to the exchange, sending it
// immediately (eager, never blocks). Post TAKES OWNERSHIP of part, which
// must come from Comm.Alloc: it is given to the transport without a copy,
// and the caller may not touch it afterwards. Billing is that of a copying
// send. Each other member must be posted exactly once, and the caller's own
// index never; Post must be called from the PE goroutine that owns the
// Comm (encoder tasks signal a completion channel and the PE posts,
// keeping all accounting confined).
func (pd *Pending) Post(idx int, part []byte) {
	switch {
	case idx < 0 || idx >= len(pd.postedIdx):
		panic(fmt.Sprintf("comm: Post index %d out of range (n=%d)", idx, len(pd.postedIdx)))
	case idx == pd.g.myIdx:
		panic(fmt.Sprintf("comm: Post(%d): the own part never enters a staged exchange", idx))
	case pd.postedIdx[idx]:
		panic(fmt.Sprintf("comm: Post(%d): member already posted", idx))
	}
	pd.postedIdx[idx] = true
	pd.toPost--
	// Send's billing, without its copy.
	c, dst := pd.g.c, pd.g.ranks[idx]
	c.accountSendAs(pd.phase, dst, len(part))
	c.t.Give(dst, pd.tag, part)
}

// PollAny blocks until some undrained member's payload is available, marks
// it drained, and returns it with the member's group index. Payloads come
// in arrival order (up to a scan-width race in the transport — see
// transport.PopAny), which is what lets a caller decode and process each
// run while the stragglers are still in flight. ok=false reports that
// every other member has been drained. Draining before every other
// member's part has been posted panics.
func (pd *Pending) PollAny() (idx int, data []byte, ok bool) {
	if pd.toPost > 0 {
		panic(fmt.Sprintf("comm: draining a staged alltoallv with %d parts unposted", pd.toPost))
	}
	if len(pd.undrained) == 0 {
		return -1, nil, false
	}
	t0 := time.Now()
	src, data, arrived := pd.g.c.t.RecvAny(pd.undrained, pd.tag)
	// Blocked time is counted only up to the message's ARRIVAL, not the
	// receive's return: the gap between the two is scheduler wake-up
	// latency, which would otherwise overstate waiting (it can exceed the
	// whole overlap span under CPU contention) and must not be subtracted
	// from the overlap credit. A message that was already queued (arrived
	// before t0) cost no waiting at all.
	if arrived.After(t0) {
		pd.waited += arrived.Sub(t0)
	}
	if arrived.After(pd.lastArrival) {
		pd.lastArrival = arrived
	}
	pd.g.c.accountRecvAs(pd.phase, src, len(data))
	k := sort.SearchInts(pd.undrained, src)
	pd.undrained = append(pd.undrained[:k], pd.undrained[k+1:]...)
	if len(pd.undrained) == 0 {
		pd.complete()
	}
	return sort.SearchInts(pd.g.ranks, src), data, true
}

// complete credits the overlap achieved by this collective: the wall span
// from opening to the LAST ARRIVAL, minus the time actually spent blocked
// waiting, is communication that ran hidden under the caller's compute.
// Ending the span at the last arrival (not the last drain) is what keeps
// the metric honest: once every payload has been delivered there is no
// in-flight communication left to hide, so compute after that point —
// e.g. decoding runs that were already queued — earns no credit. All
// blocked time lies before the last arrival by construction (a receive
// only unblocks on a delivery), so the subtraction never double-counts.
func (pd *Pending) complete() {
	ov := pd.lastArrival.Sub(pd.posted) - pd.waited
	if ov > 0 {
		pd.g.c.st.Overlap[pd.phase] += ov.Nanoseconds()
	}
	// Arg carries the overlap credit in nanoseconds (clamped at 0), so the
	// timeline shows per-collective how much communication stayed hidden.
	ovNS := ov.Nanoseconds()
	if ovNS < 0 {
		ovNS = 0
	}
	pd.g.c.tr.Instant(trace.TrackControl, doneName, ovNS, 0)
}
