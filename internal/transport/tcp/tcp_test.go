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

// closeAll closes endpoints and reports any Close error.
func closeAll(t *testing.T, eps ...*tcp.Endpoint) {
	t.Helper()
	for i, e := range eps {
		if err := e.Close(); err != nil {
			t.Errorf("endpoint %d: Close: %v", i, err)
		}
	}
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
	defer closeAll(t, eps...)
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
	defer closeAll(t, eps...)
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
	defer closeAll(t, eps...)
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
	defer closeAll(t, eps...)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rendezvous took %v with a stalled stranger; handshakes are not concurrent", elapsed)
	}
	eps[1].Send(0, 9, []byte("ok"))
	if got := eps[0].Recv(1, 9); string(got) != "ok" {
		t.Fatalf("got %q", got)
	}
}

// TestCleanCloseReportsNoError: a clean Close right after normal traffic
// reports no error even though the peers' teardowns race our readers (an
// EOF after a goodbye is shutdown, not failure).
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
