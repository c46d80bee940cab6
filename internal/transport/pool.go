package transport

import (
	"math/bits"
	"sync"
)

// Pool is the source of every message buffer: Transport.Alloc draws the
// buffers that Give hands over, and the TCP backend draws receive buffers
// for incoming frames. Small buffers (up to 1 MiB) come in power-of-two size
// classes and recycle — receivers that have fully consumed a payload hand it
// back through Transport.Release, so control traffic allocates nothing in
// steady state. Larger requests are allocated at exactly
// the requested size and are never parked: a Step-3 bucket is used once per
// exchange, and rounding a 37.5 MB bucket up to a 64 MB class costs more
// than recycling it could ever save. Returning buffers is optional: an
// unreleased buffer is simply collected by the GC.
//
// The free lists are plain mutex-guarded stacks rather than sync.Pool:
// putting a []byte into a sync.Pool boxes the slice header on every call,
// which would re-introduce exactly the per-message allocation the pool is
// meant to remove. Each endpoint keeps its own Pool, and in the local
// backend each PE goroutine only ever touches its own, so the mutex is
// essentially uncontended (the TCP backend shares an endpoint's pool
// between its reader goroutines and the PE goroutine, where the lock does
// real work). Buffers migrate freely: a buffer allocated by one pool may be
// released into another.
type Pool struct {
	mu      sync.Mutex
	classes [numBufClasses][][]byte
}

// maxPooled is the largest capacity the pool hands out in a size class and
// the largest it parks — the top class. maxPerClass bounds the memory
// parked per size class.
const (
	numBufClasses = 21
	maxPooled     = 1 << (numBufClasses - 1) // 1 MiB
	maxPerClass   = 256
)

// Get returns a buffer of length n: with the capacity of the containing
// size class up to maxPooled, of exactly n bytes above. Contents are
// unspecified; callers overwrite the full length.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	if n > maxPooled {
		return make([]byte, n)
	}
	c := bits.Len(uint(n - 1)) // smallest c with n ≤ 1<<c
	p.mu.Lock()
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c] = p.classes[c][:l-1]
		poisonTaken(b)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// Put returns a buffer to the pool, classed by its capacity so that a
// future Get never receives a buffer that is too small; a buffer larger
// than maxPooled is left to the GC. The caller must no longer reference b:
// under the dsspoison build tag the buffer is overwritten, and releasing a
// buffer that is in flight or already pooled panics (see poison_on.go).
func (p *Pool) Put(b []byte) {
	n := cap(b)
	if n == 0 {
		return
	}
	poisonReleased(b)
	if n > maxPooled {
		return
	}
	c := bits.Len(uint(n)) - 1 // largest c with 1<<c ≤ cap
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], b[:0])
		poisonPooled(b)
	}
	p.mu.Unlock()
}
