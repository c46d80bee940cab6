// Package tcp implements the multi-process transport backend: PEs exchange
// length-prefixed framed messages over persistent pairwise TCP connections,
// so p workers on one or many hosts execute a genuinely distributed sort.
//
// Topology and rendezvous. Every PE knows the full peer table (rank →
// host:port, identical on all PEs) and binds a listener on its own entry.
// Exactly one connection exists per unordered PE pair: rank i dials every
// rank j < i (transient connect failures retry with bounded exponential
// backoff until the peer's listener is up, capped by the rendezvous
// timeout) and accepts from every rank j > i. A 13-byte handshake in each
// direction (magic, protocol version, rank, fabric size) maps connections
// to ranks and rejects strangers; accepted handshakes run concurrently
// under the rendezvous deadline, so one stalled stranger cannot delay the
// whole mesh. The listener closes once the mesh is complete.
//
// Wire format. One frame per message: an 8-byte little-endian tag, a
// 4-byte payload length, then the payload. The connection is the (src,
// dst) pair, so ranks never travel with frames. The length 0xFFFFFFFF,
// above the payload limit, marks the goodbye: the last frame a side sends
// on a connection.
//
// Fail-stop. Like an MPI job, a fabric does not outlive a lost peer. A
// connection error, a malformed frame or an EOF before the peer's goodbye
// fails the endpoint: the first error is recorded, every socket and
// mailbox closes, and blocked receives panic with that error, which names
// the peer. Closing the other sockets makes every other rank read an EOF
// without a goodbye, so the failure reaches the whole fabric at once, with
// no timeout involved. Close reports it.
//
// Delivery. A reader goroutine per connection drains frames into
// per-source mailboxes (shared with the local backend), and a writer
// goroutine per connection drains an unbounded outbound queue, so Give
// posts and returns: sends never block, per-pair same-tag messages are
// non-overtaking (one queue, one socket), and receives are tag-selective.
// A given buffer goes back to the pool as soon as the writer has written
// it. Self-sends short-circuit through an in-memory mailbox without
// touching a socket — consistent with the accounting rule that no bytes
// leave the PE.
//
// Shutdown. Close drains every outbound queue and writes a goodbye on each
// connection, then keeps reading until it has the peer's goodbye too (or
// the endpoint failed), bounded by Config.ShutdownTimeout, and only then
// closes the sockets: closing a socket with unread incoming bytes sends an
// RST, and an RST can destroy frames the peer has not read yet. The peer's
// reader answers a goodbye at once, with the peer's own once its queue to
// the closing side is drained, so the exchange waits only for the network,
// never for the peer's PE to finish its work. A goodbye marks its sender
// departed: a receive from it, with nothing queued from it, fails naming
// that peer instead of waiting, and a send to it panics.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dss/internal/transport"
)

const (
	handshakeMagic    = 0x31535344 // "DSS1", little-endian
	protocolVersion   = 3
	handshakeLen      = 13 // magic u32 | version u8 | rank u32 | p u32
	headerLen         = 12 // tag u64 | payload length u32
	maxPayload        = 1<<31 - 1
	lenGoodbye        = ^uint32(0) // the length field of a goodbye frame
	defaultRendezvous = 30 * time.Second
	defaultShutdown   = 10 * time.Second

	// Dial retries back off exponentially between these bounds. The first
	// retries come fast (workers of one job usually start within
	// milliseconds of each other, and a refused connection simply means the
	// peer's listener is not up yet), but a peer that stays away — a slow
	// container pull, a host still booting — must not be hammered with
	// thousands of SYNs for the rest of the rendezvous window.
	dialBackoffMin = 2 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// Config tunes connection establishment and shutdown.
type Config struct {
	// RendezvousTimeout bounds how long ConnectConfig waits for all peers to
	// appear (workers of an SPMD job may start seconds apart). Zero means
	// 30 s.
	RendezvousTimeout time.Duration
	// ShutdownTimeout bounds Close's staged shutdown: draining the outbound
	// queues and exchanging goodbyes with every peer. Peers answer a goodbye
	// whatever their PEs are doing, so this bounds network time, not the
	// slowest rank's work. A peer whose goodbye has not arrived by then
	// fails the endpoint. Zero means 10 s.
	ShutdownTimeout time.Duration
}

func (cfg Config) shutdownTimeout() time.Duration {
	if cfg.ShutdownTimeout == 0 {
		return defaultShutdown
	}
	return cfg.ShutdownTimeout
}

// Endpoint is one PE's endpoint of a TCP fabric. It implements
// transport.Transport. Send/Recv are confined to the PE's goroutine like
// every transport; the reader and writer goroutines of its connections
// are managed by the endpoint itself.
type Endpoint struct {
	rank  int
	p     int
	cfg   Config
	conns []*peerConn          // conns[r], nil at own rank
	boxes []*transport.Mailbox // boxes[src]
	pool  transport.Pool

	closing   atomic.Bool   // teardown has begun: socket errors are expected
	failed    chan struct{} // closed when the endpoint fails
	failOnce  sync.Once
	tdOnce    sync.Once
	closeOnce sync.Once
	workers   sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// peerConn is the connection to one peer: the socket, the outbound queue
// its writer drains, and the two halves of the staged shutdown.
type peerConn struct {
	e    *Endpoint
	peer int

	mu      sync.Mutex
	cond    *sync.Cond // wakes the writer
	c       net.Conn
	q       []outFrame
	bye     bool // write a goodbye once the queue is drained (Close, or the peer's goodbye)
	gone    bool // the peer's goodbye was read: Give panics
	stopped bool // torn down: the writer exits and Give panics

	wrote chan struct{} // closed once our goodbye is on the wire
	heard chan struct{} // closed once the peer's goodbye has been read
}

type outFrame struct {
	tag  int
	data []byte
}

// ConnectConfig joins the fabric described by peers as the given rank: it
// binds a listener on peers[rank], establishes the pairwise mesh, and
// returns when every connection is up. peers must be identical (including
// order) on every rank; its length is the fabric size. This is the SPMD
// entry point — one call per OS process.
func ConnectConfig(rank int, peers []string, cfg Config) (*Endpoint, error) {
	if len(peers) == 0 {
		return nil, errors.New("transport/tcp: empty peer table")
	}
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("transport/tcp: rank %d out of range (P=%d)", rank, len(peers))
	}
	ln, err := net.Listen("tcp", peers[rank])
	if err != nil {
		return nil, fmt.Errorf("transport/tcp: rank %d: bind %s: %w", rank, peers[rank], err)
	}
	return connect(ln, rank, peers, cfg)
}

// identified is one accepted connection mapped to its peer rank.
type identified struct {
	rank int
	conn net.Conn
}

// connect establishes the mesh over an already-bound listener and closes
// the listener when the mesh is complete or has failed.
func connect(ln net.Listener, rank int, peers []string, cfg Config) (*Endpoint, error) {
	p := len(peers)
	timeout := cfg.RendezvousTimeout
	if timeout == 0 {
		timeout = defaultRendezvous
	}
	deadline := time.Now().Add(timeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	e := &Endpoint{
		rank:   rank,
		p:      p,
		cfg:    cfg,
		conns:  make([]*peerConn, p),
		boxes:  make([]*transport.Mailbox, p),
		failed: make(chan struct{}),
	}
	for i := range e.boxes {
		e.boxes[i] = transport.NewMailbox()
		if i != rank {
			pc := &peerConn{e: e, peer: i, wrote: make(chan struct{}), heard: make(chan struct{})}
			pc.cond = sync.NewCond(&pc.mu)
			e.conns[i] = pc
		}
	}

	idCh := make(chan identified)
	acceptErrCh := make(chan error, 1)
	stop := make(chan struct{}) // closed when the rendezvous is over
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		e.acceptLoop(ln, deadline, idCh, acceptErrCh, stop)
	}()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		if err := e.collectPeers(idCh, acceptErrCh); err != nil {
			e.fail(err)
		}
	}()
	if err := e.dialPeers(peers, deadline); err != nil {
		e.fail(err)
	}
	<-collected
	close(stop)
	ln.Close()
	<-accepting
	// Whichever side failed first recorded the root cause; the other side
	// was aborted by it.
	if err := e.err(); err != nil {
		e.teardown()
		e.workers.Wait()
		return nil, err
	}
	for _, pc := range e.conns {
		if pc != nil {
			e.start(pc.writeLoop)
		}
	}
	return e, nil
}

// start runs f as one of the endpoint's tracked goroutines.
func (e *Endpoint) start(f func()) {
	e.workers.Add(1)
	go func() {
		defer e.workers.Done()
		f()
	}()
}

// acceptLoop accepts connections until the rendezvous is over. Handshakes
// run concurrently, one goroutine per accepted connection, so a stranger
// that connects and then stalls mid-handshake cannot delay the rendezvous:
// the loop keeps accepting while the stalled handshake waits out its
// deadline in the background.
func (e *Endpoint) acceptLoop(ln net.Listener, deadline time.Time, idCh chan<- identified, acceptErrCh chan<- error, stop <-chan struct{}) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case acceptErrCh <- err:
			default:
			}
			return
		}
		go e.handshake(conn, deadline, idCh, stop)
	}
}

// handshake performs the acceptor side of one handshake: read the dialer's
// hello, reply with ours, and funnel the identified connection to the
// collector. Strangers are dropped silently without consuming a peer slot.
func (e *Endpoint) handshake(conn net.Conn, deadline time.Time, idCh chan<- identified, stop <-chan struct{}) {
	conn.SetDeadline(deadline)
	r, err := readHello(conn, e.p)
	// A misconfigured dialer (wrong fabric size, wrong protocol) sees the
	// mismatch in our reply and fails fast on its side.
	if err != nil || r <= e.rank || r >= e.p || writeHello(conn, e.rank, e.p) != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	select {
	case idCh <- identified{rank: r, conn: conn}:
	case <-stop:
		conn.Close()
	}
}

// collectPeers waits for one identified connection from every higher rank,
// funneled in by the accept loop. An accept error matters only while a
// higher rank is still missing.
func (e *Endpoint) collectPeers(idCh <-chan identified, acceptErrCh <-chan error) error {
	got := make([]bool, e.p)
	for remaining := e.p - 1 - e.rank; remaining > 0; remaining-- {
		select {
		case id := <-idCh:
			if got[id.rank] {
				id.conn.Close()
				return fmt.Errorf("transport/tcp: rank %d: duplicate handshake from rank %d", e.rank, id.rank)
			}
			got[id.rank] = true
			e.conns[id.rank].adopt(id.conn)
		case err := <-acceptErrCh:
			return fmt.Errorf("transport/tcp: rank %d: accept: %w", e.rank, err)
		case <-e.failed:
			return nil
		}
	}
	return nil
}

// dialPeers connects to every lower rank, retrying until the peer's
// listener is reachable, the rendezvous deadline expires, or the endpoint
// fails.
func (e *Endpoint) dialPeers(peers []string, deadline time.Time) error {
	for r := 0; r < e.rank; r++ {
		conn, err := e.dialPeer(r, peers[r], deadline)
		if err != nil {
			return err
		}
		e.conns[r].adopt(conn)
	}
	return nil
}

// dialPeer dials one lower-ranked peer, treating transient connect
// failures (connection refused, host momentarily unreachable, a listener
// backlog overflow) as "not up yet" and retrying with bounded exponential
// backoff until the deadline. Only handshake mismatches that redialing
// cannot cure (errFatalHandshake) and a failure of the endpoint fail
// immediately.
func (e *Endpoint) dialPeer(r int, addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	backoff := dialBackoffMin
	for time.Now().Before(deadline) {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			conn.SetDeadline(deadline)
			err = writeHello(conn, e.rank, e.p)
			var got int
			if err == nil {
				got, err = readHello(conn, e.p)
			}
			if err == nil {
				if got != r {
					conn.Close()
					return nil, fmt.Errorf("transport/tcp: rank %d: peer at %s identifies as rank %d, want %d",
						e.rank, addr, got, r)
				}
				conn.SetDeadline(time.Time{})
				return conn, nil
			}
			conn.Close()
			// Redialing cannot cure a protocol or peer-table mismatch.
			if errors.Is(err, errFatalHandshake) {
				return nil, fmt.Errorf("transport/tcp: rank %d: handshake with rank %d at %s: %w",
					e.rank, r, addr, err)
			}
			// A connection that handshook partially (e.g. the peer died
			// mid-hello) is worth a quick retry: reset the backoff, the
			// peer was demonstrably reachable a moment ago.
			backoff = dialBackoffMin
		}
		lastErr = err
		select {
		case <-e.failed:
			return nil, fmt.Errorf("transport/tcp: rank %d: rendezvous aborted", e.rank)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
	return nil, fmt.Errorf("transport/tcp: rank %d: rendezvous with rank %d at %s timed out: %w",
		e.rank, r, addr, lastErr)
}

func writeHello(c net.Conn, rank, p int) error {
	var b [handshakeLen]byte
	binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
	b[4] = protocolVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(rank))
	binary.LittleEndian.PutUint32(b[9:13], uint32(p))
	_, err := c.Write(b[:])
	return err
}

// errFatalHandshake marks handshake failures that redialing cannot cure
// (protocol or configuration mismatches, as opposed to a peer that is not
// up yet); the dial retry loop fails fast on them.
var errFatalHandshake = errors.New("fatal handshake mismatch")

// readHello reads one handshake message and returns the sender's rank.
func readHello(c net.Conn, wantP int) (int, error) {
	var b [handshakeLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(b[0:4]) != handshakeMagic {
		return 0, fmt.Errorf("%w: bad magic", errFatalHandshake)
	}
	if b[4] != protocolVersion {
		return 0, fmt.Errorf("%w: protocol version %d, want %d", errFatalHandshake, b[4], protocolVersion)
	}
	if p := int(binary.LittleEndian.Uint32(b[9:13])); p != wantP {
		return 0, fmt.Errorf("%w: peer believes P=%d, want %d", errFatalHandshake, p, wantP)
	}
	return int(binary.LittleEndian.Uint32(b[5:9])), nil
}

// adopt installs the pair's connection and starts its reader. A pair torn
// down by a failed rendezvous refuses it.
func (pc *peerConn) adopt(conn net.Conn) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.stopped {
		conn.Close()
		return
	}
	pc.c = conn
	pc.e.start(pc.readLoop)
}

// writeFrame puts one frame header and its payload into w.
func writeFrame(w *bufio.Writer, tag int, length uint32, data []byte) error {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(int64(tag)))
	binary.LittleEndian.PutUint32(hdr[8:12], length)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// writeLoop is the pair's single socket writer. It takes the whole queue
// at once, writes it with one flush, and returns each buffer to the pool
// once it is written; Give only appends to the queue, so a PE never blocks
// on a socket. When Close has asked for it and the queue is empty, it
// writes the goodbye and exits.
func (pc *peerConn) writeLoop() {
	e := pc.e
	w := bufio.NewWriterSize(pc.c, 64<<10)
	var batch []outFrame
	for {
		pc.mu.Lock()
		for len(pc.q) == 0 && !pc.bye && !pc.stopped {
			pc.cond.Wait()
		}
		if pc.stopped {
			pc.mu.Unlock()
			return
		}
		batch, pc.q = pc.q, batch[:0]
		pc.mu.Unlock()

		var err error
		if len(batch) == 0 {
			if err = writeFrame(w, 0, lenGoodbye, nil); err == nil {
				err = w.Flush()
			}
			if err == nil {
				close(pc.wrote)
				return
			}
		}
		for i, f := range batch {
			if err == nil {
				err = writeFrame(w, f.tag, uint32(len(f.data)), f.data)
			}
			transport.NoteHandoff(f.data)
			e.pool.Put(f.data)
			batch[i] = outFrame{}
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			e.connFailed(fmt.Errorf("transport/tcp: rank %d: write to rank %d: %w", e.rank, pc.peer, err))
			return
		}
	}
}

// readLoop drains frames from the pair's connection into the peer's
// mailbox. A goodbye ends it cleanly: it marks the peer departed and has
// the writer answer with our goodbye once the queue is drained, so the
// peer's Close need not wait for our own. Anything else that ends it
// fails the endpoint.
func (pc *peerConn) readLoop() {
	e := pc.e
	err := e.readFrames(pc.peer, bufio.NewReaderSize(pc.c, 64<<10))
	if err == nil {
		e.boxes[pc.peer].SetDeparted(true)
		pc.mu.Lock()
		pc.gone, pc.bye = true, true
		pc.cond.Signal()
		pc.mu.Unlock()
		close(pc.heard)
		return
	}
	if err == io.EOF {
		err = errors.New("closed without a goodbye")
	}
	e.connFailed(fmt.Errorf("transport/tcp: rank %d: connection to rank %d: %w", e.rank, pc.peer, err))
}

// readFrames delivers frames from one connection's byte stream until the
// peer's goodbye (nil) or an error: io.EOF for a stream that ends at a
// frame boundary, a descriptive error for a malformed header, never a
// panic — the fuzz suite drives this function with arbitrary bytes.
func (e *Endpoint) readFrames(src int, br *bufio.Reader) error {
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[0:8])))
		n := binary.LittleEndian.Uint32(hdr[8:12])
		if n == lenGoodbye {
			return nil
		}
		if n > maxPayload {
			return fmt.Errorf("frame length %d exceeds limit", n)
		}
		buf, err := e.readPayload(br, int(n))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		e.boxes[src].Push(tag, buf)
	}
}

// readPayload reads one payload of n bytes into a pooled buffer,
// probing the first 64 KiB before committing to a large allocation, so a
// corrupt header claiming gigabytes costs nothing when the stream cannot
// back it up.
func (e *Endpoint) readPayload(br *bufio.Reader, n int) ([]byte, error) {
	const probe = 64 << 10
	if n <= probe {
		buf := e.pool.Get(n)
		if _, err := io.ReadFull(br, buf); err != nil {
			e.pool.Put(buf)
			return nil, err
		}
		return buf, nil
	}
	head := e.pool.Get(probe)
	if _, err := io.ReadFull(br, head); err != nil {
		e.pool.Put(head)
		return nil, err
	}
	buf := e.pool.Get(n)
	copy(buf, head)
	e.pool.Put(head)
	if _, err := io.ReadFull(br, buf[probe:]); err != nil {
		e.pool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// P returns the fabric size.
func (e *Endpoint) P() int { return e.p }

// Alloc draws a buffer from the endpoint's pool.
func (e *Endpoint) Alloc(n int) []byte { return e.pool.Get(n) }

// Give queues buf for dst's writer (or short-circuits self-sends through
// the local mailbox) and returns at once. The writer writes the socket
// from buf itself and then returns it to this endpoint's pool; that is why
// the caller may not touch buf after Give.
func (e *Endpoint) Give(dst, tag int, buf []byte) {
	if dst < 0 || dst >= e.p {
		panic(fmt.Sprintf("transport/tcp: send to invalid rank %d (P=%d)", dst, e.p))
	}
	if len(buf) > maxPayload {
		panic(fmt.Sprintf("transport/tcp: payload of %d bytes exceeds frame limit", len(buf)))
	}
	transport.NoteGive(buf)
	if dst == e.rank {
		e.boxes[dst].Push(tag, buf)
		return
	}
	pc := e.conns[dst]
	pc.mu.Lock()
	var cause error
	switch {
	case pc.stopped:
		cause = e.closedErr()
	case pc.gone:
		cause = fmt.Errorf("rank %d closed its endpoint", dst)
	}
	if cause != nil {
		pc.mu.Unlock()
		panic(fmt.Sprintf("transport/tcp: rank %d: send to rank %d failed: %v", e.rank, dst, cause))
	}
	pc.q = append(pc.q, outFrame{tag: tag, data: buf})
	pc.cond.Signal()
	pc.mu.Unlock()
}

// Send gives a copy of data to dst.
func (e *Endpoint) Send(dst, tag int, data []byte) { transport.SendCopy(e, dst, tag, data) }

// Recv blocks until a message with the given tag arrives from src.
func (e *Endpoint) Recv(src, tag int) []byte {
	if src < 0 || src >= e.p {
		panic(fmt.Sprintf("transport/tcp: recv from invalid rank %d (P=%d)", src, e.p))
	}
	data, ok := e.boxes[src].Pop(tag)
	if !ok {
		panic(e.lost(src, tag))
	}
	return data
}

// RecvAny blocks until a message with the given tag is available from any
// of the listed sources and returns it with its source rank and delivery
// time.
func (e *Endpoint) RecvAny(srcs []int, tag int) (int, []byte, time.Time) {
	if len(srcs) == 0 {
		panic("transport/tcp: RecvAny needs at least one source")
	}
	boxes := make([]*transport.Mailbox, len(srcs))
	for i, src := range srcs {
		if src < 0 || src >= e.p {
			panic(fmt.Sprintf("transport/tcp: recv from invalid rank %d (P=%d)", src, e.p))
		}
		boxes[i] = e.boxes[src]
	}
	i, data, arrived, ok := transport.PopAny(boxes, tag)
	if !ok {
		panic(e.lost(srcs[i], tag))
	}
	return srcs[i], data, arrived
}

// lost describes a receive from src that can never be satisfied.
func (e *Endpoint) lost(src, tag int) string {
	if e.err() == nil && e.boxes[src].Departed() {
		return fmt.Sprintf("transport/tcp: rank %d closed its endpoint without sending what rank %d waits for (tag %d)",
			src, e.rank, tag)
	}
	return fmt.Sprintf("transport/tcp: rank %d: receive from rank %d (tag %d) failed: %v", e.rank, src, tag, e.closedErr())
}

// Release returns payload buffers to the endpoint's pool; future incoming
// frames reuse them.
func (e *Endpoint) Release(bufs ...[]byte) {
	for _, b := range bufs {
		e.pool.Put(b)
	}
}

// err returns the endpoint's recorded failure, nil while it has none.
func (e *Endpoint) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// closedErr is the cause a Give or receive on a torn-down endpoint
// reports: the recorded failure, or the endpoint's own Close.
func (e *Endpoint) closedErr() error {
	if err := e.err(); err != nil {
		return err
	}
	return errors.New("endpoint closed")
}

// fail records the endpoint's first error and tears it down. Every peer
// then reads an EOF without a goodbye and fails in turn.
func (e *Endpoint) fail(err error) {
	e.failOnce.Do(func() {
		e.errMu.Lock()
		e.firstErr = err
		e.errMu.Unlock()
		close(e.failed)
	})
	e.teardown()
}

// connFailed fails the endpoint for a connection error, unless the error
// is the endpoint's own teardown closing the socket under a reader or
// writer.
func (e *Endpoint) connFailed(err error) {
	if !e.closing.Load() {
		e.fail(err)
	}
}

// teardown closes every connection and every mailbox and stops the
// writers; frames still queued are dropped. Pending mailbox messages stay
// receivable.
func (e *Endpoint) teardown() {
	e.tdOnce.Do(func() {
		e.closing.Store(true)
		for _, pc := range e.conns {
			if pc == nil {
				continue
			}
			pc.mu.Lock()
			pc.stopped = true
			pc.q = nil
			if pc.c != nil {
				pc.c.Close()
			}
			pc.cond.Broadcast()
			pc.mu.Unlock()
		}
		for _, b := range e.boxes {
			b.Close()
		}
	})
}

// Close runs the staged shutdown — every queue drained, a goodbye written
// on every connection, every peer's goodbye read, bounded by
// Config.ShutdownTimeout — and then closes the sockets and mailboxes and
// waits for the endpoint's goroutines. Idempotent. It returns the
// endpoint's failure, if it had one, so a run's exit status reflects a
// lost connection instead of dropping it.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		for _, pc := range e.conns {
			if pc != nil {
				pc.mu.Lock()
				pc.bye = true
				pc.cond.Signal()
				pc.mu.Unlock()
			}
		}
		e.awaitGoodbyes()
		e.teardown()
		e.workers.Wait()
	})
	return e.err()
}

// awaitGoodbyes waits until every pair has written its goodbye and read
// the peer's, the endpoint fails, or the shutdown timeout expires, which
// fails the endpoint.
func (e *Endpoint) awaitGoodbyes() {
	timeout := e.cfg.shutdownTimeout()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for _, pc := range e.conns {
		if pc == nil {
			continue
		}
		for _, done := range [...]chan struct{}{pc.wrote, pc.heard} {
			select {
			case <-done:
			case <-e.failed:
				return
			case <-timer.C:
				e.fail(fmt.Errorf("transport/tcp: rank %d: close: no goodbye exchanged with rank %d within %v",
					e.rank, pc.peer, timeout))
				return
			}
		}
	}
}

// fabric holds all endpoints of an in-process TCP mesh.
type fabric struct {
	eps []*Endpoint
}

// NewLoopback builds a p-endpoint fabric on automatically chosen loopback
// ports — real sockets, one process. This is how Sort runs over TCP and how
// the conformance suite exercises the backend.
func NewLoopback(p int) (transport.Fabric, error) {
	return NewLoopbackConfig(p, Config{})
}

// NewLoopbackConfig is NewLoopback with explicit tuning.
func NewLoopbackConfig(p int, cfg Config) (transport.Fabric, error) {
	if p <= 0 {
		return nil, errors.New("transport/tcp: fabric needs at least one PE")
	}
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return NewFabricConfig(addrs, cfg)
}

// NewFabricConfig binds one endpoint per address in the calling process
// and connects them into a full mesh. Addresses should carry an explicit
// host; port 0 picks an ephemeral port.
func NewFabricConfig(addrs []string, cfg Config) (transport.Fabric, error) {
	p := len(addrs)
	if p == 0 {
		return nil, errors.New("transport/tcp: empty address list")
	}
	lns := make([]net.Listener, p)
	bound := make([]string, p)
	for i, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("transport/tcp: bind %s: %w", a, err)
		}
		lns[i] = ln
		bound[i] = ln.Addr().String()
	}
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = connect(lns[r], r, bound, cfg)
		}(r)
	}
	wg.Wait()
	f := &fabric{eps: eps}
	if err := errors.Join(errs...); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// P returns the number of endpoints.
func (f *fabric) P() int { return len(f.eps) }

// Endpoint returns the endpoint of the given rank.
func (f *fabric) Endpoint(rank int) transport.Transport { return f.eps[rank] }

// Close closes every endpoint and returns their recorded failures joined,
// like Endpoint.Close.
func (f *fabric) Close() error {
	var errs []error
	for _, ep := range f.eps {
		if ep != nil {
			errs = append(errs, ep.Close())
		}
	}
	return errors.Join(errs...)
}
