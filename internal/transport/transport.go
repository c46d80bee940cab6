// Package transport defines the point-to-point message substrate that the
// comm layer (accounting and collective operations) runs on. The paper's
// algorithms were built on MPI over InfiniBand; this reproduction makes the
// delivery mechanism pluggable: the same algorithm code runs unchanged over
// in-process goroutine mailboxes (transport/local) or over real sockets
// between OS processes (transport/tcp).
//
// A Transport is one processing element's endpoint. Its semantics follow
// MPI point-to-point messaging:
//
//   - Every message travels in exactly one buffer that changes OWNER, never
//     in a chain of copies: Give hands a buffer obtained from Alloc to the
//     transport, which delivers that buffer (local), or queues it and
//     writes the socket from it (tcp). After Give the sender may not
//     read, write, re-Give or Release the buffer; the
//     receiver owns what Recv returns. Send is the copying convenience on
//     top — Alloc, copy, Give — for callers that keep their slice. Either
//     way two PEs never hold the same memory at the same time.
//   - Sends never block waiting for a matching receive (eager/buffered
//     delivery with unbounded queues), which the comm layer's collectives
//     rely on for deadlock freedom.
//   - Messages between a fixed (sender, receiver) pair with the same tag
//     are non-overtaking; Recv selects the earliest pending message from
//     the requested source with the requested tag.
//
// Byte accounting is deliberately NOT a transport concern: the comm layer
// attributes communication volume at its own Send/Recv boundary, so the
// paper's "bytes sent per string" statistics are identical no matter which
// backend carries the messages.
package transport

import "time"

// Transport is one PE's endpoint of the message substrate.
type Transport interface {
	// Rank returns this endpoint's rank in [0, P).
	Rank() int
	// P returns the number of PEs of the fabric this endpoint belongs to.
	P() int
	// Alloc returns a buffer of length n from the endpoint's pool, to be
	// filled and handed to Give (or returned with Release). Contents are
	// unspecified.
	Alloc(n int) []byte
	// Give transmits buf to dst with the given tag and takes ownership of
	// it: buf must come from Alloc (any length up to its capacity), and the
	// caller must not touch it — or any slice of it — afterwards. It is the
	// only delivery path a backend implements. Give never blocks waiting
	// for the receiver. Delivery failures are programming or infrastructure
	// errors and panic.
	Give(dst, tag int, buf []byte)
	// Send transmits a copy of data: the caller retains ownership of data
	// and may reuse it as soon as Send returns. Every backend implements it
	// as SendCopy, so Send and Give share one delivery path and one
	// non-overtaking order per (pair, tag).
	Send(dst, tag int, data []byte)
	// Recv blocks until a message with the given tag arrives from src and
	// returns its payload. The returned slice is owned by the caller. Recv
	// panics if, with nothing matching queued, the endpoint is closed, the
	// peer connection is lost, or the peer has left (a local rank that
	// returned from its run, a tcp peer that closed its endpoint).
	Recv(src, tag int) []byte
	// RecvAny blocks until a message with the given tag is available from
	// ANY of the listed sources, removes it, and returns it together with
	// the rank it came from and its delivery time (the moment the message
	// became receivable, which may predate the call when the payload sat
	// queued — the split-phase overlap model needs arrival, not pickup,
	// times). It is the readiness primitive of the split-phase
	// collectives: received runs can be processed in arrival order instead
	// of a fixed rank order. Like Recv it panics if a needed peer is
	// lost or has left while waiting. srcs must be non-empty and may
	// include the endpoint's own rank.
	RecvAny(srcs []int, tag int) (src int, data []byte, arrived time.Time)
	// Release returns payload buffers (typically obtained from Recv) to the
	// endpoint's buffer pool for reuse. Callers must no longer reference the
	// buffers or any sub-slice of them. Releasing is optional and never
	// required for correctness.
	Release(bufs ...[]byte)
	// Close tears the endpoint down. Blocked and future Recvs panic. Close
	// is idempotent.
	Close() error
}

// Departer is the optional capability of endpoints whose fabric can tell a
// rank's peers that it has returned from a run (transport/local, seen
// through the codec and chaos decorators): a peer's receive that nothing
// queued can satisfy then fails naming the rank. The fabric clears the mark
// for its next run.
type Departer interface {
	Depart()
}

// SendCopy is Transport.Send for every backend: the payload is copied once,
// into a buffer of the endpoint's own pool, and that buffer is given away.
func SendCopy(t Transport, dst, tag int, data []byte) {
	buf := t.Alloc(len(data))
	copy(buf, data)
	t.Give(dst, tag, buf)
}

// Fabric is a connected set of P endpoints, one per rank. In-process runs
// (the local backend, or the TCP backend bound to loopback ports) hold all
// endpoints of the fabric in one process; SPMD multi-process runs construct
// a single endpoint per process instead (see tcp.ConnectConfig) and never see a
// Fabric.
type Fabric interface {
	// P returns the number of endpoints.
	P() int
	// Endpoint returns the endpoint of the given rank. Each endpoint is
	// confined to the goroutine running its PE.
	Endpoint(rank int) Transport
	// Close tears down every endpoint of the fabric.
	Close() error
}
