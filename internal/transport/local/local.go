// Package local implements the in-process transport backend: each PE is a
// goroutine and messages travel through per-(sender, receiver) mailboxes.
// This is the substrate the reproduction originally hard-wired into the
// comm package, moved behind the transport interface: Give pushes the
// caller's buffer itself into the receiver's mailbox — zero copies end to
// end, the buffer just changes owner — sends never block, and messages
// between a fixed pair are non-overtaking with tag-selective receives.
// Send is transport.SendCopy: one copy into a buffer of the sender's pool,
// which is then given.
package local

import (
	"fmt"
	"time"

	"dss/internal/transport"
)

// Machine is the in-process fabric: P mailbox-connected endpoints sharing
// one address space. Create one with New; it needs no teardown (Close is a
// no-op) and can be reused for several consecutive runs. A rank that
// departs (Depart) stays departed until its endpoint is taken again with
// Endpoint, which is how each run starts.
type Machine struct {
	p     int
	boxes [][]*transport.Mailbox // boxes[dst][src]
	pools []transport.Pool       // per-PE recycled payload buffers
}

// New creates a fabric with p endpoints.
func New(p int) *Machine {
	if p <= 0 {
		panic("transport/local: fabric needs at least one PE")
	}
	m := &Machine{
		p:     p,
		boxes: make([][]*transport.Mailbox, p),
		pools: make([]transport.Pool, p),
	}
	for dst := 0; dst < p; dst++ {
		m.boxes[dst] = make([]*transport.Mailbox, p)
		for src := 0; src < p; src++ {
			m.boxes[dst][src] = transport.NewMailbox()
		}
	}
	return m
}

// P returns the number of endpoints.
func (m *Machine) P() int { return m.p }

// Endpoint returns the endpoint of the given rank and clears its departure
// from an earlier run. Like the rest of the substrate it is confined to the
// goroutine running the PE.
func (m *Machine) Endpoint(rank int) transport.Transport {
	if rank < 0 || rank >= m.p {
		panic(fmt.Sprintf("transport/local: invalid rank %d (P=%d)", rank, m.p))
	}
	for dst := range m.boxes {
		m.boxes[dst][rank].SetDeparted(false)
	}
	return &endpoint{rank: rank, m: m}
}

// Close is a no-op: goroutine mailboxes hold no external resources.
func (m *Machine) Close() error { return nil }

// endpoint is one PE's view of the machine.
type endpoint struct {
	rank int
	m    *Machine
}

// Rank returns this endpoint's rank.
func (e *endpoint) Rank() int { return e.rank }

// P returns the fabric size.
func (e *endpoint) P() int { return e.m.p }

// Alloc draws a buffer from this PE's pool.
func (e *endpoint) Alloc(n int) []byte { return e.m.pools[e.rank].Get(n) }

// Give enqueues buf itself at dst; the receiver's Recv returns it.
func (e *endpoint) Give(dst, tag int, buf []byte) {
	if dst < 0 || dst >= e.m.p {
		panic(fmt.Sprintf("transport/local: send to invalid rank %d (P=%d)", dst, e.m.p))
	}
	transport.NoteGive(buf)
	e.m.boxes[dst][e.rank].Push(tag, buf)
}

// Send gives a copy of data to dst.
func (e *endpoint) Send(dst, tag int, data []byte) { transport.SendCopy(e, dst, tag, data) }

// Recv blocks until a message with the given tag arrives from src.
func (e *endpoint) Recv(src, tag int) []byte {
	if src < 0 || src >= e.m.p {
		panic(fmt.Sprintf("transport/local: recv from invalid rank %d (P=%d)", src, e.m.p))
	}
	data, ok := e.m.boxes[e.rank][src].Pop(tag)
	if !ok {
		panic(e.lost(src))
	}
	return data
}

// RecvAny blocks until a message with the given tag is available from any
// of the listed sources and returns it with its source rank and delivery
// time.
func (e *endpoint) RecvAny(srcs []int, tag int) (int, []byte, time.Time) {
	if len(srcs) == 0 {
		panic("transport/local: RecvAny needs at least one source")
	}
	boxes := make([]*transport.Mailbox, len(srcs))
	for i, src := range srcs {
		if src < 0 || src >= e.m.p {
			panic(fmt.Sprintf("transport/local: recv from invalid rank %d (P=%d)", src, e.m.p))
		}
		boxes[i] = e.m.boxes[e.rank][src]
	}
	i, data, arrived, ok := transport.PopAny(boxes, tag)
	if !ok {
		panic(e.lost(srcs[i]))
	}
	return srcs[i], data, arrived
}

// lost describes a receive from src that can never be satisfied.
func (e *endpoint) lost(src int) string {
	if e.m.boxes[e.rank][src].Departed() {
		return fmt.Sprintf("transport/local: rank %d returned from the run without sending what rank %d waits for", src, e.rank)
	}
	return fmt.Sprintf("transport/local: recv from %d on closed endpoint %d", src, e.rank)
}

// Depart marks this rank as gone for the rest of the run: what it sent
// stays receivable, and a peer's receive that finds nothing from it fails
// naming it.
func (e *endpoint) Depart() {
	for dst := range e.m.boxes {
		e.m.boxes[dst][e.rank].SetDeparted(true)
	}
}

// Release returns payload buffers to this PE's pool for reuse by future
// Allocs.
func (e *endpoint) Release(bufs ...[]byte) {
	for _, b := range bufs {
		e.m.pools[e.rank].Put(b)
	}
}

// Close closes this endpoint's inbound mailboxes, waking blocked receivers.
func (e *endpoint) Close() error {
	for _, box := range e.m.boxes[e.rank] {
		box.Close()
	}
	return nil
}
