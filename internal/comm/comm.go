// Package comm is the accounting-and-collectives layer the paper's
// algorithms run on. The original implementation uses MPI on an InfiniBand
// cluster; here each processing element (PE) owns a transport endpoint with
// strictly private memory, and all data crosses PE boundaries through
// explicit tagged point-to-point messages and collective operations built
// on top of them.
//
// The message substrate itself is pluggable (package transport): the
// default backend runs every PE as a goroutine with in-process mailboxes
// (transport/local), and the TCP backend runs PEs as OS processes connected
// by persistent pairwise sockets (transport/tcp). comm is deliberately thin
// over it — rank metadata, Send/Recv forwarding, and the collectives — so
// the algorithms in internal/core are oblivious to the delivery mechanism.
//
// Byte accounting lives HERE, not in the transports: every payload byte and
// message sent to a *different* PE is attributed to the sending PE's
// current accounting phase (package stats) at the comm Send/Recv boundary.
// This is how the "bytes sent per string" panels of Figures 4 and 5 are
// reproduced exactly, and it is why the statistics are bit-identical across
// backends: the transports move bytes, comm counts them.
//
// Message semantics follow MPI: every Send's payload is copied (a PE can
// never observe another PE's memory), messages between a fixed (sender,
// receiver) pair are non-overtaking, and a receive selects the earliest
// pending message from the requested source with the requested tag.
package comm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"dss/internal/par"
	"dss/internal/stats"
	"dss/internal/trace"
	"dss/internal/transport"
	"dss/internal/transport/local"
)

// Machine is a distributed-memory machine with P processing elements over
// an in-process fabric. Create one with New (goroutine mailboxes) or
// NewOver (any fabric, e.g. loopback TCP), then execute an SPMD program
// with Run. A Machine can be reused for several consecutive successful Run
// calls; statistics accumulate until ResetStats is called. A failed Run
// closes every endpoint, so the machine is spent after it: every later Run
// returns an error at once. Call Close when done to release fabric
// resources (a no-op for the local backend).
//
// SPMD multi-process programs do not use a Machine at all: each process
// wraps its own endpoint with NewComm instead.
type Machine struct {
	fabric  transport.Fabric
	pes     []*stats.PE
	pool    *par.Pool
	aborted bool // a Run failed and closed every endpoint
}

// New creates a machine with p PEs over the in-process mailbox transport.
func New(p int) *Machine {
	if p <= 0 {
		panic("comm: machine needs at least one PE")
	}
	return NewOver(local.New(p))
}

// NewOver creates a machine over an existing connected fabric.
func NewOver(f transport.Fabric) *Machine {
	m := &Machine{fabric: f, pes: make([]*stats.PE, f.P())}
	m.ResetStats()
	return m
}

// P returns the number of PEs.
func (m *Machine) P() int { return m.fabric.P() }

// SetPool installs an intra-PE work pool shared by all PEs of the machine
// (nil reverts to sequential). Sharing one pool machine-wide is the right
// bound on a single host: the PE goroutines themselves already occupy
// cores, and the pool's token count caps the extra helpers.
func (m *Machine) SetPool(p *par.Pool) { m.pool = p }

// Report returns the accounting report accumulated so far, under the
// default cost model.
func (m *Machine) Report() *stats.Report {
	return stats.NewReport(m.pes, stats.DefaultModel())
}

// ResetStats clears all accumulated counters.
func (m *Machine) ResetStats() {
	for i := range m.pes {
		m.pes[i] = &stats.PE{}
	}
}

// Close tears down the underlying fabric. A no-op for the local backend;
// for socket-backed fabrics it closes every connection.
func (m *Machine) Close() error { return m.fabric.Close() }

// Run executes f once per PE, concurrently, and waits for all PEs to
// finish. Each invocation receives a Comm bound to its rank. The first PE
// to return an error or panic aborts the run: Run closes every rank's
// endpoint, which wakes peers blocked in Recv with a panic, closes the
// Comms' Aborted channel, and returns that first failure — not the peers'
// secondary closed-endpoint errors. A PE that returns without error
// departs: on a fabric whose endpoints support it (transport/local), what
// it sent stays receivable, and a peer's receive that only it could still
// satisfy fails naming it instead of waiting forever.
func (m *Machine) Run(f func(c *Comm) error) error {
	if m.aborted {
		return errors.New("comm: an earlier run aborted this machine and closed its endpoints")
	}
	p := m.fabric.P()
	eps := make([]transport.Transport, p)
	for rank := range eps {
		eps[rank] = m.fabric.Endpoint(rank)
	}
	var (
		abort   sync.Once
		first   error
		aborted = make(chan struct{})
	)
	fail := func(err error) {
		abort.Do(func() {
			first = err
			for _, ep := range eps {
				ep.Close()
			}
			close(aborted)
		})
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			// Departing after the failure is recorded keeps a peer's
			// departure error from overtaking this PE's own.
			if d, ok := eps[rank].(transport.Departer); ok {
				defer d.Depart()
			}
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("PE %d panicked: %v\n%s", rank, r, debug.Stack()))
				}
			}()
			c := newComm(eps[rank], m.pes[rank])
			c.SetPool(m.pool)
			c.aborted = aborted
			if err := f(c); err != nil {
				fail(err)
			}
			c.flushWall()
		}(rank)
	}
	wg.Wait()
	m.aborted = first != nil
	return first
}

// Aborted returns a channel that is closed once the machine running this
// PE has recorded a failure and is aborting the run — for a PE that waits
// on something other than a message. It is nil, never ready, for a Comm
// made with NewComm.
func (c *Comm) Aborted() <-chan struct{} { return c.aborted }

// Comm is one PE's endpoint of the machine: its transport endpoint and its
// accounting state. A Comm is confined to the goroutine running the PE.
type Comm struct {
	t          transport.Transport
	st         *stats.PE
	wm         wireMeter       // non-nil when the transport meters wire bytes itself
	tr         *trace.Recorder // timeline recorder; nil = tracing off
	pool       *par.Pool       // intra-PE work pool; nil = sequential
	phase      stats.Phase
	phaseStart time.Time     // start of the current phase's wall span
	aborted    chan struct{} // closed when the machine aborts the run (Aborted)
}

// wireMeter is the optional transport interface of the wire-compression
// decorator (transport/codec): a transport that changes the bytes crossing
// the fabric meters the actual frame sizes into the PE's wire counters and
// follows the comm layer's phase transitions. Transports without the
// interface ship frames verbatim, and comm mirrors the raw volume into the
// wire counters instead — stats.PE.Wire is always populated either way.
type wireMeter interface {
	BindWireStats(*stats.PE)
	SetWirePhase(stats.Phase)
}

// traceBinder is the optional transport interface of decorators that
// record their own timeline events: the codec decorator implements it to
// put post-codec frame sizes next to the raw volume on the timeline.
type traceBinder interface {
	BindTrace(*trace.Recorder)
}

// NewComm wraps a single connected transport endpoint for SPMD runs where
// each OS process is one PE (see transport/tcp.ConnectConfig and cmd/dss-worker).
// The Comm starts with fresh accounting state; the caller keeps ownership
// of the endpoint and is responsible for closing it.
func NewComm(t transport.Transport) *Comm {
	return newComm(t, &stats.PE{})
}

// newComm binds a transport endpoint to its accounting state, hooking up
// the wire metering when the transport supports it.
func newComm(t transport.Transport, pe *stats.PE) *Comm {
	c := &Comm{t: t, st: pe, phaseStart: time.Now()}
	if wm, ok := t.(wireMeter); ok {
		wm.BindWireStats(pe)
		wm.SetWirePhase(c.phase)
		c.wm = wm
	}
	return c
}

// Rank returns this PE's rank in [0, P).
func (c *Comm) Rank() int { return c.t.Rank() }

// P returns the number of PEs of the machine.
func (c *Comm) P() int { return c.t.P() }

// SetPhase switches the accounting phase for subsequent operations and
// returns the previous phase. Besides steering the deterministic counters
// it closes the old phase's wall-clock span (stats.PE.Wall), which feeds
// the overlap model's per-phase timeline.
func (c *Comm) SetPhase(ph stats.Phase) stats.Phase {
	c.flushWall()
	old := c.phase
	c.phase = ph
	if c.wm != nil {
		c.wm.SetWirePhase(ph)
	}
	if c.tr != nil {
		c.tr.End(trace.TrackControl, old.String())
		c.tr.Begin(trace.TrackControl, ph.String())
	}
	if trace.LiveOn() {
		trace.Live.SetPhase(c.t.Rank(), ph.String())
	}
	return old
}

// SetTrace installs the PE's timeline recorder (nil = tracing off) and
// opens the current phase's span. A codec-decorated transport is bound
// too, so post-codec frame sizes land on the same timeline. The recorder
// only observes; no deterministic counter depends on it.
func (c *Comm) SetTrace(r *trace.Recorder) {
	c.tr = r
	if tb, ok := c.t.(traceBinder); ok {
		tb.BindTrace(r)
	}
	r.Begin(trace.TrackControl, c.phase.String())
}

// Trace returns the PE's timeline recorder; nil when tracing is off.
// Layers below comm (spill pools, merge hooks) pick it up from here.
func (c *Comm) Trace() *trace.Recorder { return c.tr }

// flushWall folds the elapsed wall time of the current phase span into the
// PE's Wall counters and restarts the span.
func (c *Comm) flushWall() {
	now := time.Now()
	if !c.phaseStart.IsZero() {
		c.st.Wall[c.phase] += now.Sub(c.phaseStart).Nanoseconds()
	}
	c.phaseStart = now
}

// Phase returns the current accounting phase.
func (c *Comm) Phase() stats.Phase { return c.phase }

// AddWork credits local work units (character inspections, moves) to the
// current phase.
func (c *Comm) AddWork(units int64) {
	c.st.Phases[c.phase].Work += units
}

// SetPool installs this PE's intra-PE work pool (nil = sequential) and
// records the pool width in the PE's statistics.
func (c *Comm) SetPool(p *par.Pool) {
	c.pool = p
	c.st.Cores = int64(p.Cores())
}

// Pool returns the PE's intra-PE work pool; nil means sequential, which
// every par entry point treats as the exact width-1 code path.
func (c *Comm) Pool() *par.Pool { return c.pool }

// AddCPU credits busy worker nanoseconds from a parallel region to the
// current phase's CPU measurement channel (never a model input).
func (c *Comm) AddCPU(ns int64) {
	c.st.CPU[c.phase] += ns
}

// StatsPE returns this PE's accounting state. While the PE is running it
// must only be read from the PE's own goroutine.
func (c *Comm) StatsPE() *stats.PE { return c.st }

// Send transmits data to dst with the given tag. The payload is copied (or
// fully written out) by the transport, so the caller retains ownership of
// data. Self-sends are delivered but do not count as communication volume
// (no bytes leave the PE). The volume and message count are attributed here,
// at the comm boundary, identically for every backend.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.accountSendAs(c.phase, dst, len(data))
	c.t.Send(dst, tag, data)
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. The returned slice is owned by the caller.
func (c *Comm) Recv(src, tag int) []byte {
	data := c.t.Recv(src, tag)
	c.accountRecvAs(c.phase, src, len(data))
	return data
}

// accountSendAs / accountRecvAs are the single home of the deterministic
// volume accounting, parameterized by the phase to bill: the blocking
// operations bill the current phase, a staged Pending (its
// ownership-transferring Posts and its receives) bills the phase captured
// when it opened. Keeping one copy is what guarantees both forms stay
// bit-identical.
func (c *Comm) accountSendAs(ph stats.Phase, dst, n int) {
	if dst != c.t.Rank() {
		pc := &c.st.Phases[ph]
		pc.BytesSent += int64(n)
		pc.Messages++
		if c.wm == nil {
			// No codec decorates the transport: every frame ships
			// verbatim, so the wire volume IS the raw volume.
			c.st.Wire[ph].Sent += int64(n)
		}
		c.tr.Instant(trace.TrackControl, "send", int64(n), int64(dst))
		if trace.LiveOn() {
			trace.Live.RawSent.Add(int64(n))
			if c.wm == nil {
				trace.Live.WireSent.Add(int64(n))
			}
		}
	}
}

func (c *Comm) accountRecvAs(ph stats.Phase, src, n int) {
	if src != c.t.Rank() {
		c.st.Phases[ph].BytesRecv += int64(n)
		if c.wm == nil {
			c.st.Wire[ph].Recv += int64(n)
		}
		c.tr.Instant(trace.TrackControl, "recv", int64(n), int64(src))
		if trace.LiveOn() {
			trace.Live.RawRecv.Add(int64(n))
			if c.wm == nil {
				trace.Live.WireRecv.Add(int64(n))
			}
		}
	}
}

// WorkerObserver returns a par.Observer that attributes each worker's
// busy interval of a labeled fork point to its goroutine track; nil when
// tracing is off (par treats nil as unobserved, so the disabled path
// costs nothing).
func (c *Comm) WorkerObserver(label string) par.Observer {
	tr := c.tr
	if tr == nil {
		return nil
	}
	return func(worker int, startNS, endNS int64) {
		tr.Span(trace.TrackWorker0+int32(worker), label, startNS, endNS)
	}
}

// ForEachSpan is Pool().ForEach with trace attribution: each
// participating worker's busy span lands on its goroutine track under the
// given label when tracing is enabled. The schedule and the returned busy
// nanoseconds are identical to a plain ForEach.
func (c *Comm) ForEachSpan(label string, n int, fn func(i int)) int64 {
	return c.pool.ForEachObs(n, fn, c.WorkerObserver(label))
}

// Alloc returns a buffer of length n from the transport's pool, to be
// filled and handed over with Pending.Post (which takes ownership) or
// returned with Release.
func (c *Comm) Alloc(n int) []byte { return c.t.Alloc(n) }

// Release returns payload buffers (typically obtained from Recv or a
// collective) to the transport's buffer pool for reuse. Call it only when
// the payload — including every sub-slice handed out by a decoder — is no
// longer referenced; decoders that copy their results out (the wire
// package's arena decoders do) leave the message releasable. Releasing is
// optional and never required for correctness.
func (c *Comm) Release(bufs ...[]byte) {
	c.t.Release(bufs...)
}

// SendRecv exchanges a message with a partner PE: it sends data to partner
// and receives the partner's message with the same tag. Safe against
// deadlock because sends never block.
func (c *Comm) SendRecv(partner, tag int, data []byte) []byte {
	c.Send(partner, tag, data)
	return c.Recv(partner, tag)
}

// WorldRanks returns the rank list [0, p) — the membership of the world
// group.
func WorldRanks(p int) []int {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}
