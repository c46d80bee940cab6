//go:build dsspoison

package transport

import "sync"

// Under the dsspoison build tag the ownership rules of Give and Release are
// checked instead of trusted: a released buffer is overwritten with 0xDB, so
// a reader that kept a slice of it sees garbage the output differentials
// catch, and every buffer that is in flight (given, not yet handed on) or
// parked in a pool is on record, so giving or releasing it a second time
// panics at the call that breaks the contract.

const poisonByte = 0xDB

type bufState uint8

const (
	bufGiven  bufState = iota + 1 // owned by a transport between Give and handoff
	bufPooled                     // parked in a Pool's free list
)

// bufStates is keyed by the last byte of the backing array, which every
// b[i:j] of one allocation shares. Holding the pointer keeps the array
// alive, so an address is never reused while it is on record.
var (
	bufMu     sync.Mutex
	bufStates = map[*byte]bufState{}
)

func bufKey(b []byte) *byte {
	b = b[:cap(b)]
	return &b[len(b)-1]
}

// NoteGive is called by a backend's Give when it takes ownership of buf.
func NoteGive(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	k := bufKey(buf)
	bufMu.Lock()
	defer bufMu.Unlock()
	switch bufStates[k] {
	case bufGiven:
		panic("transport: buffer given twice")
	case bufPooled:
		panic("transport: Give of a released buffer")
	}
	bufStates[k] = bufGiven
}

// NoteHandoff is called when a given buffer leaves the transport's custody:
// popped by its receiver, written to the socket by the tcp writer, or
// passed on to the wrapped transport by a decorator.
func NoteHandoff(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	k := bufKey(buf)
	bufMu.Lock()
	if bufStates[k] == bufGiven {
		delete(bufStates, k)
	}
	bufMu.Unlock()
}

func poisonReleased(b []byte) {
	k := bufKey(b)
	bufMu.Lock()
	st := bufStates[k]
	bufMu.Unlock()
	switch st {
	case bufGiven:
		panic("transport: Release of a buffer that was given away")
	case bufPooled:
		panic("transport: buffer released twice")
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

func poisonPooled(b []byte) {
	bufMu.Lock()
	bufStates[bufKey(b)] = bufPooled
	bufMu.Unlock()
}

func poisonTaken(b []byte) {
	bufMu.Lock()
	delete(bufStates, bufKey(b))
	bufMu.Unlock()
}
