// Split-phase (non-blocking) personalized all-to-all. IAlltoallv posts
// every outgoing part immediately — eager sends never block — and returns
// a Pending handle; the caller overlaps local compute with the in-flight
// communication and drains the results incrementally (PollRecv / PollAny)
// or all at once (Wait). The blocking Alltoallv of group.go is a thin
// veneer (IAlltoallv immediately followed by Wait), so the two forms are
// interchangeable and their accounting is bit-identical.
//
// Accounting model. ALL traffic of a split-phase exchange — the sends
// posted up front and every receive — is attributed to the accounting
// phase that was current when the exchange was POSTED, no matter which
// phase the PE is in when it drains.
// This is what keeps the deterministic statistics (model time, bytes per
// string) independent of how much overlap the caller achieves: an exchange
// posted in the exchange phase bills to the exchange phase even when its
// runs are drained during merging.
//
// Overlap model. Each Pending measures, in wall-clock time, the span from
// posting to the LAST ARRIVAL of its payloads and subtracts the time the
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

// Pending is a split-phase all-to-all exchange in flight. It is confined to
// the PE goroutine that posted it, like the Comm itself. Exactly one of the
// draining methods consumes each payload: a payload handed out by PollRecv
// or PollAny is owned by the caller (and releasable via Comm.Release) and
// will NOT be returned again by Wait.
type Pending struct {
	g      *Group
	tag    int
	phase  stats.Phase // accounting phase captured at post time
	posted time.Time
	waited time.Duration // total time spent blocked on this collective
	// lastArrival is the latest known moment a payload of this collective
	// became receivable (transport delivery stamp for PollAny, receive
	// return time for targeted receives, posted for the self part). The
	// overlap span ends HERE, not at the last drain: compute executed
	// after everything has arrived hides nothing.
	lastArrival time.Time

	self      []byte // the caller's own part (IAlltoallv: a copy; Post: the buffer itself)
	results   [][]byte
	drained   []bool
	remaining int
	srcs      []int // scratch for the undrained-source list, reused per drain
	// Staged-posting state (IAlltoallvStaged): outgoing parts still owed via
	// Post. Draining is rejected until every part has been posted.
	toPost    int
	postedIdx []bool

	waitCalled bool
	// noOverlap suppresses the overlap credit: set by the blocking veneer
	// (IAlltoallv immediately followed by Wait), which by definition hides
	// no communication — otherwise every blocking exchange would credit the
	// few nanoseconds between posting and draining as "overlap" noise.
	noOverlap bool
}

// IAlltoallv posts a personalized all-to-all exchange: parts[i] is the
// payload for group member i. All outgoing messages are sent before it
// returns (sends are eager and never block); the incoming payloads are
// drained from the returned handle. The traffic is identical, message for
// message, to the blocking Alltoallv — which is now literally
// IAlltoallv(parts).Wait().
func (g *Group) IAlltoallv(parts [][]byte) *Pending {
	n := len(g.ranks)
	if len(parts) != n {
		panic(fmt.Sprintf("comm: alltoallv needs %d parts, got %d", n, len(parts)))
	}
	pd := g.newPending()
	pd.results = make([][]byte, n)
	pd.drained = make([]bool, n)
	pd.remaining = n
	// Self part: logical copy, no communication, ready immediately.
	pd.self = make([]byte, len(parts[g.myIdx]))
	copy(pd.self, parts[g.myIdx])
	for i := 1; i < n; i++ {
		dst := (g.myIdx + i) % n
		pd.sendIdx(dst, parts[dst])
	}
	return pd
}

// IAlltoallvStaged posts the receive side of a personalized all-to-all
// exchange with the outgoing parts still to come: each part is handed over
// individually with Post, the moment it is ready. This is the send-side
// counterpart of PollAny's incremental draining — the parallel Step-3
// encoder posts each bucket as its encoder task finishes instead of
// holding the whole exchange back for the slowest bucket. Accounting is
// bit-identical to IAlltoallv whatever the posting order: the same bytes
// and message counts are billed per destination to the phase captured
// HERE, at post time. Draining (PollAny/PollRecv/Wait) is rejected until
// every member's part has been posted.
func (g *Group) IAlltoallvStaged() *Pending {
	n := len(g.ranks)
	pd := g.newPending()
	pd.results = make([][]byte, n)
	pd.drained = make([]bool, n)
	pd.remaining = n
	pd.toPost = n
	pd.postedIdx = make([]bool, n)
	return pd
}

// Post hands group member idx's outgoing part to a staged exchange,
// sending it immediately (eager, never blocks). Post TAKES OWNERSHIP of
// part, which must come from Comm.Alloc: a remote part is given to the
// transport without a copy, the self part is kept by reference and comes
// back out of PollAny/PollRecv/Wait — either way the caller may not touch
// part afterwards, and whoever drains it may Release it. Billing is that of
// a copying send. Each member must be posted exactly once; Post must be
// called from the PE goroutine that owns the Comm (encoder tasks signal a
// completion channel and the PE posts, keeping all accounting confined).
func (pd *Pending) Post(idx int, part []byte) {
	if pd.postedIdx == nil {
		panic("comm: Post on a non-staged alltoallv")
	}
	if idx < 0 || idx >= len(pd.postedIdx) {
		panic(fmt.Sprintf("comm: Post index %d out of range (n=%d)", idx, len(pd.postedIdx)))
	}
	if pd.postedIdx[idx] {
		panic(fmt.Sprintf("comm: Post(%d): member already posted", idx))
	}
	pd.postedIdx[idx] = true
	pd.toPost--
	if idx == pd.g.myIdx {
		pd.self = part
		return
	}
	// sendTag's billing, without its copy.
	c, dst := pd.g.c, pd.g.ranks[idx]
	c.accountSendAs(pd.phase, dst, len(part))
	c.t.Give(dst, pd.tag, part)
}

// PollAny blocks until some undrained member's payload is available, marks
// it drained, and returns it with the member's group index. The PE's own
// part is returned first; after that, payloads come in arrival order (up
// to a scan-width race in the transport — see transport.PopAny), which is
// what lets a caller decode and process each run while the stragglers are
// still in flight. ok=false reports that every member has been drained.
func (pd *Pending) PollAny() (idx int, data []byte, ok bool) {
	pd.checkDrainable()
	if pd.remaining == 0 {
		return -1, nil, false
	}
	if !pd.drained[pd.g.myIdx] {
		return pd.g.myIdx, pd.take(pd.g.myIdx, pd.self), true
	}
	if pd.srcs == nil {
		pd.srcs = make([]int, 0, pd.remaining)
	}
	srcs := pd.srcs[:0]
	for i, d := range pd.drained {
		if !d {
			srcs = append(srcs, pd.g.ranks[i])
		}
	}
	src, data := pd.recvAny(srcs)
	pd.accountRecv(src, len(data))
	idx = sort.SearchInts(pd.g.ranks, src)
	return idx, pd.take(idx, data), true
}

// PollRecv blocks until the payload from the given group member is
// available, marks it drained, and returns it. Payloads from other members
// that arrive earlier stay queued in the transport. Panics if the member
// was already drained.
func (pd *Pending) PollRecv(idx int) []byte {
	pd.checkDrainable()
	if idx < 0 || idx >= len(pd.drained) {
		panic(fmt.Sprintf("comm: PollRecv index %d out of range (n=%d)", idx, len(pd.drained)))
	}
	if pd.drained[idx] {
		panic(fmt.Sprintf("comm: PollRecv(%d): member already drained", idx))
	}
	if idx == pd.g.myIdx {
		return pd.take(idx, pd.self)
	}
	src := pd.g.ranks[idx]
	data := pd.timedRecv(src)
	pd.accountRecv(src, len(data))
	return pd.take(idx, data)
}

// timedRecv / recvAny perform a transport receive, accumulating the
// blocked time and the last-arrival stamp for the overlap measurement. The
// clock calls are skipped entirely for the blocking veneer (noOverlap),
// which never reads either — the blocking Alltoallv stays as cheap as
// before the split-phase layer.
//
// For a targeted Recv no delivery stamp is available, so the return time
// serves as the arrival estimate: exact when the receive actually blocked
// (the return IS the arrival), and within the pickup latency when the
// payload was already queued.
func (pd *Pending) timedRecv(src int) []byte {
	if pd.noOverlap {
		return pd.g.c.t.Recv(src, pd.tag)
	}
	t0 := time.Now()
	data := pd.g.c.t.Recv(src, pd.tag)
	now := time.Now()
	pd.waited += now.Sub(t0)
	pd.lastArrival = now
	return data
}

func (pd *Pending) recvAny(srcs []int) (int, []byte) {
	if pd.noOverlap {
		src, data, _ := pd.g.c.t.RecvAny(srcs, pd.tag)
		return src, data
	}
	t0 := time.Now()
	src, data, arrived := pd.g.c.t.RecvAny(srcs, pd.tag)
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
	return src, data
}

// Wait completes the exchange: it drains every remaining member and
// returns the payloads indexed by group index, with entries already handed
// out by PollRecv/PollAny left nil (their ownership was transferred when
// they were drained) — calling it on a fully drained exchange is legal and
// returns the all-nil slice. Wait may be called at most once.
func (pd *Pending) Wait() [][]byte {
	if pd.waitCalled {
		panic("comm: Wait called twice on an alltoallv")
	}
	pd.waitCalled = true
	for pd.remaining > 0 {
		idx, data, _ := pd.PollAny()
		pd.results[idx] = data
	}
	return pd.results
}

// newPending captures the posting context of a split-phase exchange: a
// fresh tag, the current accounting phase, and the wall clock for the
// overlap measurement.
func (g *Group) newPending() *Pending {
	g.c.tr.Instant(trace.TrackControl, postName, 0, 0)
	now := time.Now()
	return &Pending{
		g:      g,
		tag:    g.nextTag(),
		phase:  g.c.phase,
		posted: now,
		// The self part (and a degenerate single-member collective) is
		// "delivered" at post time; real receives push this forward.
		lastArrival: now,
	}
}

// take marks a member drained and finishes the overlap measurement when it
// was the last one.
func (pd *Pending) take(idx int, data []byte) []byte {
	pd.drained[idx] = true
	pd.remaining--
	if pd.remaining == 0 {
		pd.complete()
	}
	return data
}

// checkDrainable rejects draining a staged exchange before every part has
// been posted. A fully drained exchange is fine: PollAny reports it with
// ok=false and PollRecv rejects per member.
func (pd *Pending) checkDrainable() {
	if pd.toPost > 0 {
		panic(fmt.Sprintf("comm: draining a staged alltoallv with %d parts unposted", pd.toPost))
	}
}

// complete credits the overlap achieved by this collective: the wall span
// from posting to the LAST ARRIVAL, minus the time actually spent blocked
// waiting, is communication that ran hidden under the caller's compute.
// Ending the span at the last arrival (not the last drain) is what keeps
// the metric honest: once every payload has been delivered there is no
// in-flight communication left to hide, so compute after that point —
// e.g. decoding runs that were already queued — earns no credit. All
// blocked time lies before the last arrival by construction (a receive
// only unblocks on a delivery), so the subtraction never double-counts.
func (pd *Pending) complete() {
	if pd.noOverlap {
		return
	}
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

// sendIdx sends one part of the exchange, attributing volume and message
// count — through the same Comm accounting helper the blocking operations
// use — to the phase captured at post time (NOT the PE's current phase),
// so that draining during a later phase leaves the deterministic
// statistics untouched.
func (pd *Pending) sendIdx(idx int, data []byte) {
	pd.g.c.sendAs(pd.phase, pd.g.ranks[idx], pd.tag, data)
}

// accountRecv attributes received bytes to the posting phase.
func (pd *Pending) accountRecv(src, n int) {
	pd.g.c.accountRecvAs(pd.phase, src, n)
}
