package tcp_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dss/internal/transport"
	"dss/internal/transport/conformance"
	"dss/internal/transport/tcp"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, func(tb testing.TB, p int) transport.Fabric {
		f, err := tcp.NewLoopback(p)
		if err != nil {
			tb.Fatalf("loopback fabric: %v", err)
		}
		return f
	})
}

// freeAddrs reserves p distinct loopback ports the way an SPMD launcher
// would pick them: bind, record, release.
func freeAddrs(t *testing.T, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestStaggeredRendezvous starts the workers of a 4-PE fabric with
// staggered delays, as the processes of a real SPMD launch would, and
// checks that the dial-retry rendezvous still assembles the full mesh and
// carries traffic.
func TestStaggeredRendezvous(t *testing.T) {
	const p = 4
	addrs := freeAddrs(t, p)
	eps := make([]*tcp.Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			time.Sleep(time.Duration(rank) * 150 * time.Millisecond)
			eps[rank], errs[rank] = tcp.ConnectConfig(rank, addrs, tcp.Config{
				RendezvousTimeout: 10 * time.Second,
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	// One all-to-all round over the assembled mesh.
	wg.Add(p)
	bodyErrs := make([]error, p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			e := eps[rank]
			for dst := 0; dst < p; dst++ {
				e.Send(dst, 1, []byte(fmt.Sprintf("%d->%d", rank, dst)))
			}
			for src := 0; src < p; src++ {
				want := fmt.Sprintf("%d->%d", src, rank)
				if got := e.Recv(src, 1); string(got) != want {
					bodyErrs[rank] = fmt.Errorf("from %d: got %q, want %q", src, got, want)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range bodyErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestDialBackoffSurvivesLateListener pins the dial-side hardening: a
// worker whose peer appears only after many refused connects (well past
// the point where the exponential backoff has reached its cap) must keep
// retrying and join the mesh instead of giving up on the first refusal.
func TestDialBackoffSurvivesLateListener(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	eps := make([]*tcp.Endpoint, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() { // rank 1 dials rank 0 immediately and eats refusals
		defer wg.Done()
		eps[1], errs[1] = tcp.ConnectConfig(1, addrs, tcp.Config{RendezvousTimeout: 10 * time.Second})
	}()
	go func() { // rank 0's listener appears ~1s late
		defer wg.Done()
		time.Sleep(1 * time.Second)
		eps[0], errs[0] = tcp.ConnectConfig(0, addrs, tcp.Config{RendezvousTimeout: 10 * time.Second})
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer eps[0].Close()
	defer eps[1].Close()
	eps[1].Send(0, 1, []byte("late"))
	if got := eps[0].Recv(1, 1); string(got) != "late" {
		t.Fatalf("payload after late rendezvous: %q", got)
	}
}

func TestConnectRejectsBadRank(t *testing.T) {
	if _, err := tcp.ConnectConfig(3, []string{"127.0.0.1:0", "127.0.0.1:0"}, tcp.Config{}); err == nil {
		t.Fatal("rank out of range accepted")
	}
	if _, err := tcp.ConnectConfig(0, nil, tcp.Config{}); err == nil {
		t.Fatal("empty peer table accepted")
	}
}

// TestRendezvousTimesOut checks that a worker whose peers never appear
// fails with a descriptive error instead of hanging forever.
func TestRendezvousTimesOut(t *testing.T) {
	addrs := freeAddrs(t, 2)
	start := time.Now()
	_, err := tcp.ConnectConfig(1, addrs, tcp.Config{RendezvousTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("rendezvous with absent peer succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error does not mention the timeout: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

// TestStrangerConnectionIgnored checks that a connection that never
// completes the handshake does not consume a peer slot or corrupt the
// rendezvous.
func TestStrangerConnectionIgnored(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	eps := make([]*tcp.Endpoint, 2)
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		eps[0], errs[0] = tcp.ConnectConfig(0, addrs, tcp.Config{RendezvousTimeout: 10 * time.Second})
	}()
	// A stranger pokes rank 0's listener with garbage before rank 1 dials.
	if conn, err := net.Dial("tcp", addrs[0]); err == nil {
		conn.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
		conn.Close()
	}
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond)
		eps[1], errs[1] = tcp.ConnectConfig(1, addrs, tcp.Config{RendezvousTimeout: 10 * time.Second})
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer eps[0].Close()
	defer eps[1].Close()
	eps[0].Send(1, 9, []byte("ok"))
	if got := eps[1].Recv(0, 9); string(got) != "ok" {
		t.Fatalf("got %q", got)
	}
}

// TestStalledStrangerDoesNotDelayRendezvous pins the concurrent-handshake
// guarantee: a stranger that connects to the acceptor and then goes silent
// (never completing a handshake) must not stall the mesh until its deadline
// expires — the real peer's handshake proceeds in parallel and the
// rendezvous completes promptly.
func TestStalledStrangerDoesNotDelayRendezvous(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	eps := make([]*tcp.Endpoint, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		eps[0], errs[0] = tcp.ConnectConfig(0, addrs, tcp.Config{RendezvousTimeout: 30 * time.Second})
	}()
	// The stranger connects first and holds the connection open without
	// ever writing a byte; the serial acceptor would sit in its handshake
	// read until the 30 s deadline. Retry until rank 0's listener is bound.
	var stranger net.Conn
	var err error
	for i := 0; i < 200; i++ {
		if stranger, err = net.Dial("tcp", addrs[0]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("stranger dial: %v", err)
	}
	defer stranger.Close()
	time.Sleep(50 * time.Millisecond) // let the acceptor take the stranger first
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		eps[1], errs[1] = tcp.ConnectConfig(1, addrs, tcp.Config{RendezvousTimeout: 30 * time.Second})
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer eps[0].Close()
	defer eps[1].Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rendezvous took %v with a stalled stranger; handshakes are not concurrent", elapsed)
	}
	eps[1].Send(0, 9, []byte("ok"))
	if got := eps[0].Recv(1, 9); string(got) != "ok" {
		t.Fatalf("got %q", got)
	}
}

// TestReconnectAfterDrop kills an established connection mid-exchange with
// the ConnDropper fault injector and asserts the pair reconnects, replays
// the unacknowledged suffix, and delivers every message exactly once and
// in order — the core protocol-v2 guarantee the chaos suite builds on.
func TestReconnectAfterDrop(t *testing.T) {
	f, err := tcp.NewLoopback(2)
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	a := f.Endpoint(0).(*tcp.Endpoint)
	b := f.Endpoint(1)

	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			got := b.Recv(0, 7)
			if len(got) != 64 || got[0] != byte(i) || got[63] != byte(i) {
				panic(fmt.Sprintf("frame %d corrupted after reconnect: % x", i, got[:4]))
			}
			b.Release(got)
		}
	}()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		if i == 50 || i == 120 {
			// Cut the live connection mid-frame: the next write is
			// truncated after 10 bytes — a torn header on the wire.
			if !a.DropConn(1, 10) {
				t.Errorf("DropConn(1) = false, want true")
			}
		}
		buf[0], buf[63] = byte(i), byte(i)
		a.Send(1, 7, buf)
	}
	wg.Wait()

	reconnects, resentFrames, _ := a.NetStats()
	if reconnects < 1 {
		t.Fatalf("reconnects = %d after injected drops, want >= 1", reconnects)
	}
	if resentFrames < 1 {
		t.Fatalf("resentFrames = %d after injected drops, want >= 1", resentFrames)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close after successful recovery: %v", err)
	}
}

// TestExhaustedReconnectBudgetFailsClose pins the error-propagation half
// of recovery: with reconnection disabled, an injected drop must fail the
// endpoint permanently and Close must report the cause instead of
// returning nil — a run's exit status reflects the lost connection.
func TestExhaustedReconnectBudgetFailsClose(t *testing.T) {
	f, err := tcp.NewLoopbackConfig(2, tcp.Config{MaxReconnects: -1})
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	a := f.Endpoint(0).(*tcp.Endpoint)
	if !a.DropConn(1, 3) {
		t.Fatalf("DropConn(1) = false, want true")
	}
	a.Send(1, 5, []byte("doomed"))
	// The failure closes the mailboxes, so a blocked Recv panics with the
	// cause — that is the ordering point after which Close must report it.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("Recv returned instead of panicking on a failed endpoint")
			}
			if !strings.Contains(fmt.Sprint(r), "reconnect budget exhausted") {
				t.Fatalf("Recv panic = %v, want reconnect budget exhausted", r)
			}
		}()
		a.Recv(1, 99)
	}()
	if err := a.Close(); err == nil || !strings.Contains(err.Error(), "reconnect budget exhausted") {
		t.Fatalf("Close error = %v, want reconnect budget exhausted", err)
	}
	f.Close()
}

// TestReconnectBudgetSurvivesEndpointClose asserts the inverse of the
// budget test: a clean Close right after normal traffic reports no error
// even though the peer's teardown races our readers (EOF on a closing
// fabric is shutdown, not failure).
func TestCleanCloseReportsNoError(t *testing.T) {
	f, err := tcp.NewLoopback(3)
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	for r := 0; r < 3; r++ {
		for d := 0; d < 3; d++ {
			f.Endpoint(r).Send(d, 1, []byte{byte(r), byte(d)})
		}
	}
	for r := 0; r < 3; r++ {
		for s := 0; s < 3; s++ {
			got := f.Endpoint(r).Recv(s, 1)
			if len(got) != 2 || got[0] != byte(s) || got[1] != byte(r) {
				t.Fatalf("rank %d from %d: got % x", r, s, got)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}
}
