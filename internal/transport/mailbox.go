package transport

import (
	"sync"
	"time"
)

// envelope is one in-flight message. The arrival stamp is taken at Push —
// the moment the message became receivable — so any-source receivers can
// distinguish communication time from the time a payload merely sat queued
// (the overlap model's honest "comm hidden under compute" cut-off).
type envelope struct {
	tag  int
	data []byte
	at   time.Time
}

// Mailbox queues messages from one fixed sender to one fixed receiver.
// Senders never block (the queue is unbounded); receivers block until a
// message with a matching tag arrives. Both backends build their delivery
// on Mailboxes: the local backend pushes the given buffer itself, the TCP
// backend pushes from the per-connection reader goroutine.
//
// Beyond the blocking Pop, a Mailbox supports the readiness protocol the
// split-phase collectives need: a receiver can register a notification
// channel that is signalled on every Push (and on Close), which PopAny
// uses to wait on many mailboxes at once without polling. At most one
// notification channel is registered per mailbox at a time — mailbox
// receivers are single-goroutine by the transport contract.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []envelope
	closed bool
	// departed marks a sender that has left: receives that find no match
	// fail as on a closed mailbox, but nothing queued is dropped.
	departed bool
	notify   chan<- struct{} // signalled (non-blocking) on Push/Close/SetDeparted while set
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox {
	m := &Mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Push appends a message. Pushing to a closed mailbox drops the message.
// The arrival stamp is taken inside the critical section, so within one
// mailbox stamps and queue order always agree, and a message enqueued
// after PopAny's scan visited its box is stamped later than anything that
// scan observed — which bounds how far out of arrival order a racing push
// can be delivered (see PopAny).
func (m *Mailbox) Push(tag int, data []byte) {
	m.mu.Lock()
	if !m.closed {
		m.q = append(m.q, envelope{tag: tag, data: data, at: time.Now()})
	}
	n := m.notify
	m.mu.Unlock()
	m.cond.Broadcast()
	signal(n)
}

// Pop removes and returns the earliest message with the given tag, blocking
// until one is available. It returns ok=false if the mailbox is closed or
// its sender departed and no matching message is queued (pending messages
// remain receivable after Close and SetDeparted).
func (m *Mailbox) Pop(tag int) (data []byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if env, ok := m.popLocked(tag); ok {
			return env.data, true
		}
		if m.closed || m.departed {
			return nil, false
		}
		m.cond.Wait()
	}
}

// popLocked removes and returns the earliest matching message; its buffer
// is the receiver's from here on.
func (m *Mailbox) popLocked(tag int) (env envelope, ok bool) {
	for i := range m.q {
		if m.q[i].tag == tag {
			env = m.q[i]
			m.q = append(m.q[:i], m.q[i+1:]...)
			NoteHandoff(env.data)
			return env, true
		}
	}
	return envelope{}, false
}

// peekLocked returns the earliest matching message without removing it.
// Per-box queues are push-ordered, so the first match is the box's oldest.
func (m *Mailbox) peekLocked(tag int) (env envelope, ok bool) {
	for i := range m.q {
		if m.q[i].tag == tag {
			return m.q[i], true
		}
	}
	return envelope{}, false
}

// setNotify registers (or, with nil, clears) the channel signalled whenever
// a message is pushed or the mailbox closes. Signals are non-blocking: the
// channel should be buffered with capacity 1, and a waiter must re-scan all
// its mailboxes after every wakeup.
func (m *Mailbox) setNotify(ch chan<- struct{}) {
	m.mu.Lock()
	m.notify = ch
	m.mu.Unlock()
}

// Close marks the mailbox closed and wakes all blocked receivers. Already
// queued messages stay receivable; blocked Pops with no matching message
// return ok=false.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	n := m.notify
	m.mu.Unlock()
	m.cond.Broadcast()
	signal(n)
}

// SetDeparted marks the sender as gone (or, with false, back for a new
// run) and wakes blocked receivers: while it is marked, a receive that
// finds no matching message fails as on a closed mailbox instead of
// waiting for a push that cannot come. Unlike Close it drops nothing.
func (m *Mailbox) SetDeparted(gone bool) {
	m.mu.Lock()
	m.departed = gone
	n := m.notify
	m.mu.Unlock()
	m.cond.Broadcast()
	signal(n)
}

// Departed reports whether the sender is marked as gone.
func (m *Mailbox) Departed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.departed
}

// signal delivers a non-blocking wakeup.
func signal(ch chan<- struct{}) {
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// PopAny removes and returns the earliest-arrived matching message among
// those its scan observes across the given mailboxes, blocking until one
// arrives: when several boxes hold a match, their arrival stamps decide.
// Drain loops therefore see payloads in arrival order up to a scan-width
// race — a push that lands in an already-visited box while the scan is
// still running is observed one drain late, so an inversion is bounded by
// the duration of a single scan (microseconds), never by queue depth.
// idx is the position within boxes the message came from; arrived is the
// moment the message was pushed (it may predate the call when the payload
// sat queued). ok=false means no message was ready and some mailbox
// (reported by idx) is closed, or its sender departed, with no matching
// message pending — the message can never arrive. All boxes must belong to the same single
// receiver goroutine (which is also what makes the peek-then-pop below
// pop-safe: nobody else drains these boxes).
//
// The wait is notification-driven, not polled: a shared one-slot channel is
// registered on every box, the boxes are scanned, and the caller sleeps on
// the channel until a Push signals it. Registering before the scan makes
// lost wakeups impossible: a Push either precedes the scan (the scan finds
// the message) or follows the registration (the channel is signalled).
func PopAny(boxes []*Mailbox, tag int) (idx int, data []byte, arrived time.Time, ok bool) {
	var ch chan struct{}
	for {
		best, closedIdx := -1, -1
		var bestAt time.Time
		for i, b := range boxes {
			b.mu.Lock()
			env, got := b.peekLocked(tag)
			closed := b.closed || b.departed
			b.mu.Unlock()
			if got && (best < 0 || env.at.Before(bestAt)) {
				best, bestAt = i, env.at
			}
			if !got && closed && closedIdx < 0 {
				closedIdx = i
			}
		}
		if best >= 0 {
			b := boxes[best]
			b.mu.Lock()
			env, got := b.popLocked(tag)
			b.mu.Unlock()
			if !got {
				panic("transport: PopAny mailbox drained concurrently (receiver not single-goroutine)")
			}
			return best, env.data, env.at, true
		}
		if closedIdx >= 0 {
			return closedIdx, nil, time.Time{}, false
		}
		if ch == nil {
			// Nothing ready on the first scan: register for wakeups and
			// re-scan (registration before the scan, so no lost wakeups).
			ch = make(chan struct{}, 1)
			for _, b := range boxes {
				b.setNotify(ch)
			}
			defer func() {
				for _, b := range boxes {
					b.setNotify(nil)
				}
			}()
			continue
		}
		<-ch
	}
}
