// Package chaos is a fault-injecting transport decorator: it wraps any
// Transport (or whole Fabric) the same way the codec decorator does and
// disturbs the frame stream according to a deterministic seeded schedule —
// random frame delays, reorders across independent streams, and (on
// backends that expose the transport.ConnDropper capability, i.e. tcp)
// connection drops with optional partial writes that tear a frame on the
// wire. It exists so the test suite can prove the substrate's guarantees
// hold on a hostile network, not just on a quiet loopback: the conformance
// suite runs every backend under chaos, and the differential suite pins
// the sorted output and the deterministic model statistics bit-identical
// to an undisturbed run while connections are being killed mid-exchange.
//
// Determinism. Every decision — delay or not, how long, when to schedule a
// connection drop, where to cut the frame — is drawn from a per-endpoint
// PRNG seeded with Config.Seed mixed with the endpoint's rank. Replaying a
// run with the same seed, fabric size and send sequence reproduces the
// exact same fault schedule; the delivery *timing* still depends on the
// scheduler and the network, which is precisely what the differential
// tests need (same faults, nondeterministic interleaving, identical
// output).
//
// Ordering. The transport contract promises per-(pair, tag) FIFO, nothing
// more. Chaos exploits exactly that freedom: a delayed frame may overtake
// frames of other streams, but never a frame of its own (dst, tag) stream
// — each stream's release times are monotonically clamped. With
// Config.Reorder off the clamp is global, so delays shift arrival times
// without reordering anything.
//
// Stacking. The chaos layer wraps the raw backend and sits UNDER the codec
// decorator (comm → codec → chaos → tcp): faults hit post-codec wire
// frames, the way a real network would corrupt or delay the bytes actually
// in flight, and the codec's wire accounting stays untouched by replays
// because resends happen below the comm boundary.
package chaos

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"dss/internal/trace"
	"dss/internal/transport"
)

// Config is one deterministic fault schedule.
type Config struct {
	// Seed selects the schedule. Each endpoint mixes its rank into the
	// seed, so the PEs of one run draw independent but reproducible fault
	// sequences.
	Seed uint64
	// DelayProb is the probability that a remote frame is held back by a
	// uniform random delay in (0, MaxDelay] before it reaches the wrapped
	// transport.
	DelayProb float64
	// MaxDelay bounds the injected delay.
	MaxDelay time.Duration
	// Reorder allows delayed frames to overtake frames of OTHER
	// (destination, tag) streams. Off, delays shift arrivals but preserve
	// the endpoint's global send order.
	Reorder bool
	// DropEvery schedules a connection drop on (roughly) every n-th remote
	// frame, jittered by the PRNG; 0 never drops. Drops require the
	// wrapped transport to implement transport.ConnDropper (tcp does, the
	// local backend does not) and are silently skipped otherwise.
	DropEvery int
	// MaxDrops caps the injected drops per endpoint, so a bounded
	// reconnect budget is never exhausted by the schedule itself.
	MaxDrops int
	// PartialWrite tears the dropped frame mid-write (the connection dies
	// after a random prefix of the frame's bytes); off, the cut lands
	// cleanly before the frame.
	PartialWrite bool
}

// Levels are the named severity presets the test suite and the -chaos
// flag use. All delays stay well under the conformance suite's 1 ms
// arrival-order tolerance.
var levels = map[string]Config{
	"delay": {
		DelayProb: 0.35,
		MaxDelay:  300 * time.Microsecond,
	},
	"reorder": {
		DelayProb: 0.5,
		MaxDelay:  800 * time.Microsecond,
		Reorder:   true,
	},
	"drop": {
		DelayProb:    0.4,
		MaxDelay:     800 * time.Microsecond,
		Reorder:      true,
		DropEvery:    25,
		MaxDrops:     3,
		PartialWrite: true,
	},
}

// Parse resolves a severity level name ("delay", "reorder", "drop") to its
// preset Config. The seed is zero; callers overlay their own.
func Parse(name string) (Config, error) {
	cfg, ok := levels[name]
	if !ok {
		return Config{}, fmt.Errorf("chaos: unknown severity level %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return cfg, nil
}

// Names lists the severity levels in stable order, for flag help texts.
func Names() []string {
	names := make([]string, 0, len(levels))
	for n := range levels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// traceBinder is the capability (implemented by tcp, forwarded by codec
// and by this decorator) of routing a timeline recorder down the stack.
type traceBinder interface {
	BindTrace(tr *trace.Recorder)
}

// netStats is the failure-recovery counter capability of the wrapped
// transport, forwarded so the stats plumbing sees through the decorator.
type netStats interface {
	NetStats() (reconnects, resentFrames, resentBytes int64)
}

// Endpoint decorates one transport endpoint with the fault schedule. All
// fault decisions are drawn on the caller's Give path (one PE goroutine),
// which is what makes the schedule a pure function of the seed and the
// send sequence; the delivery of delayed frames happens on the endpoint's
// single executor goroutine, which also serializes them per release order.
type Endpoint struct {
	inner   transport.Transport
	cfg     Config
	rank    int
	rng     *rand.Rand
	dropper transport.ConnDropper // inner's, if present

	// Send-path state (PE goroutine only).
	sent      int // remote frames scheduled so far
	drops     int // drops injected so far
	nextDrop  int // frame index of the next scheduled drop
	lastKey   map[streamKey]time.Time
	lastAll   time.Time
	seq       uint64 // FIFO tiebreak for equal release times
	pendDrop  *drop  // armed for the next scheduled frame
	closeOnce sync.Once

	mu      sync.Mutex
	queue   delayHeap
	wake    chan struct{} // capacity 1; kicks the executor
	done    chan struct{}
	drained chan struct{} // executor exited (queue flushed)
	lost    error         // first refused frame; executor-written, read after drained
}

type streamKey struct {
	dst, tag int
}

type drop struct {
	afterBytes int
}

// frame is one scheduled remote send.
type frame struct {
	dst, tag  int
	data      []byte
	releaseAt time.Time
	seq       uint64
	drop      *drop
}

type delayHeap []frame

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].releaseAt.Equal(h[j].releaseAt) {
		return h[i].releaseAt.Before(h[j].releaseAt)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(frame)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = frame{}
	*h = old[:n-1]
	return f
}

// Wrap decorates a transport endpoint with the fault schedule.
func Wrap(t transport.Transport, cfg Config) *Endpoint {
	e := &Endpoint{
		inner:   t,
		cfg:     cfg,
		rank:    t.Rank(),
		lastKey: make(map[streamKey]time.Time),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	// splitmix-style rank mixing: endpoints of one run share the seed but
	// draw independent sequences.
	e.rng = rand.New(rand.NewSource(int64(cfg.Seed ^ (uint64(t.Rank())+1)*0x9E3779B97F4A7C15)))
	e.dropper, _ = t.(transport.ConnDropper)
	if cfg.DropEvery > 0 {
		e.nextDrop = 1 + e.rng.Intn(cfg.DropEvery)
	}
	go e.run()
	return e
}

// Rank returns the wrapped endpoint's rank.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// P returns the fabric size.
func (e *Endpoint) P() int { return e.inner.P() }

// Alloc delegates to the wrapped transport, so a given buffer can travel
// all the way down without a copy.
func (e *Endpoint) Alloc(n int) []byte { return e.inner.Alloc(n) }

// Send gives a copy of data to dst.
func (e *Endpoint) Send(dst, tag int, data []byte) { transport.SendCopy(e, dst, tag, data) }

// Give draws this frame's faults from the schedule and routes the frame
// through the delay queue (self-sends bypass chaos entirely: there is no
// wire to disturb). The queue holds the given buffer itself until the
// executor gives it on to the wrapped transport.
func (e *Endpoint) Give(dst, tag int, data []byte) {
	if dst == e.rank {
		e.inner.Give(dst, tag, data)
		return
	}

	e.sent++
	var dr *drop
	if e.cfg.DropEvery > 0 && e.drops < e.cfg.MaxDrops && e.sent >= e.nextDrop && e.dropper != nil {
		e.drops++
		e.nextDrop = e.sent + 1 + e.rng.Intn(e.cfg.DropEvery)
		after := 0
		if e.cfg.PartialWrite {
			// Tear the frame itself: somewhere inside header+payload.
			after = e.rng.Intn(28 + len(data) + 1)
		}
		dr = &drop{afterBytes: after}
	}

	now := time.Now()
	releaseAt := now
	if e.cfg.DelayProb > 0 && e.rng.Float64() < e.cfg.DelayProb {
		releaseAt = now.Add(time.Duration(1 + e.rng.Int63n(int64(e.cfg.MaxDelay))))
	}
	// FIFO clamps: a frame never overtakes its own (dst, tag) stream, and
	// without Reorder it never overtakes any earlier frame at all.
	key := streamKey{dst, tag}
	if last := e.lastKey[key]; releaseAt.Before(last) {
		releaseAt = last
	}
	if !e.cfg.Reorder && releaseAt.Before(e.lastAll) {
		releaseAt = e.lastAll
	}
	e.lastKey[key] = releaseAt
	if releaseAt.After(e.lastAll) {
		e.lastAll = releaseAt
	}

	transport.NoteGive(data)
	e.seq++
	f := frame{dst: dst, tag: tag, data: data, releaseAt: releaseAt, seq: e.seq, drop: dr}

	e.mu.Lock()
	heap.Push(&e.queue, f)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// run is the executor: it delivers queued frames to the wrapped transport
// in release order, arming the scheduled connection drop immediately
// before the frame whose write it is meant to tear. On Close the queue is
// flushed promptly (remaining delays are cut short, order preserved) so no
// message is ever lost to the decorator.
func (e *Endpoint) run() {
	defer close(e.drained)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		e.mu.Lock()
		closing := false
		select {
		case <-e.done:
			closing = true
		default:
		}
		var wait time.Duration = -1
		var deliver []frame
		for len(e.queue) > 0 {
			now := time.Now()
			if d := e.queue[0].releaseAt.Sub(now); d > 0 && !closing {
				wait = d
				break
			}
			deliver = append(deliver, heap.Pop(&e.queue).(frame))
		}
		empty := len(e.queue) == 0
		e.mu.Unlock()

		for _, f := range deliver {
			if f.drop != nil && e.dropper != nil {
				e.dropper.DropConn(f.dst, f.drop.afterBytes)
			}
			transport.NoteHandoff(f.data)
			e.give(f)
		}
		if closing && empty {
			return
		}
		if len(deliver) > 0 {
			continue // re-check the queue before sleeping
		}
		if wait < 0 {
			select {
			case <-e.wake:
			case <-e.done:
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-e.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		case <-e.done:
			if !timer.Stop() {
				<-timer.C
			}
		}
	}
}

// give hands one frame to the wrapped transport. A Give that panics — the
// wrapped endpoint or its peer is already closed because the run is being
// torn down — must not crash the process from the executor goroutine: the
// frame is dropped and the first such failure is kept for Close to report.
func (e *Endpoint) give(f frame) {
	defer func() {
		if r := recover(); r != nil && e.lost == nil {
			e.lost = fmt.Errorf("transport/chaos: rank %d: frame to %d lost: %v", e.rank, f.dst, r)
		}
	}()
	e.inner.Give(f.dst, f.tag, f.data)
}

// Recv delegates to the wrapped transport: chaos disturbs the send path
// only (that is where the wire is).
func (e *Endpoint) Recv(src, tag int) []byte { return e.inner.Recv(src, tag) }

// RecvAny delegates to the wrapped transport.
func (e *Endpoint) RecvAny(srcs []int, tag int) (int, []byte, time.Time) {
	return e.inner.RecvAny(srcs, tag)
}

// Release delegates buffer recycling to the wrapped transport.
func (e *Endpoint) Release(bufs ...[]byte) { e.inner.Release(bufs...) }

// BindTrace forwards the timeline recorder to the wrapped transport, so
// net-drop/net-reconnect instants reach the run's trace through the
// decorator stack.
func (e *Endpoint) BindTrace(tr *trace.Recorder) {
	if tb, ok := e.inner.(traceBinder); ok {
		tb.BindTrace(tr)
	}
}

// NetStats forwards the wrapped transport's failure-recovery counters
// (zero when the backend has none — the local backend never reconnects).
func (e *Endpoint) NetStats() (reconnects, resentFrames, resentBytes int64) {
	if ns, ok := e.inner.(netStats); ok {
		return ns.NetStats()
	}
	return 0, 0, 0
}

// Drain flushes the delay queue — every already-sent frame still reaches
// the wrapped transport, with its remaining delay cut short — and stops
// the executor, leaving the wrapped transport open. Decorators whose
// inner endpoint is owned by the caller (the RunPE path) MUST drain
// before that owner closes it: a collective completes on the sender's
// side even while its last outgoing frame is still queued here, so
// without the drain the executor could deliver into a closed transport.
func (e *Endpoint) Drain() {
	e.closeOnce.Do(func() {
		close(e.done)
	})
	<-e.drained
}

// Close drains the delay queue, then closes the wrapped transport. It
// reports the wrapped transport's failure, or else the first frame the
// executor could not deliver.
func (e *Endpoint) Close() error {
	e.Drain()
	if err := e.inner.Close(); err != nil {
		return err
	}
	return e.lost
}

// fabric decorates every endpoint of a wrapped fabric.
type fabric struct {
	inner transport.Fabric
	eps   []*Endpoint
}

// WrapFabric decorates all endpoints of f with the fault schedule. Each
// endpoint draws an independent PRNG sequence from the shared seed.
func WrapFabric(f transport.Fabric, cfg Config) transport.Fabric {
	eps := make([]*Endpoint, f.P())
	for r := range eps {
		eps[r] = Wrap(f.Endpoint(r), cfg)
	}
	return &fabric{inner: f, eps: eps}
}

// P returns the number of endpoints.
func (f *fabric) P() int { return len(f.eps) }

// Endpoint returns the decorated endpoint of the given rank.
func (f *fabric) Endpoint(rank int) transport.Transport { return f.eps[rank] }

// Close flushes and closes every decorated endpoint. The wrapped fabric's
// endpoints are closed through the decorators, not directly, so queued
// frames drain first; the wrapped fabric's own Close then reaps whatever
// fabric-level state remains.
func (f *fabric) Close() error {
	for _, ep := range f.eps {
		ep.closeOnce.Do(func() { close(ep.done) })
	}
	var err error
	for _, ep := range f.eps {
		if cerr := ep.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := f.inner.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
