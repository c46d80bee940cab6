package tcp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dss/internal/comm"
)

// recvFailure runs one Recv that is expected to fail and returns its panic
// message ("<nil>" if it returned instead).
func recvFailure(e *Endpoint, src, tag int) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	e.Recv(src, tag)
	return
}

// conn returns the live socket of one pair, the way an outside cut (a
// dead peer, a dropped route) would find it.
func (e *Endpoint) conn(peer int) net.Conn {
	pc := e.conns[peer]
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.c
}

// TestConnectionLossFailsEveryRank cuts one pair's socket of a 4-PE
// fabric mid-exchange, while every rank waits in a Recv. The fabric is
// fail-stop: every rank's pending Recv must fail within 2 s with an error
// naming the connection it lost — far inside the 30 s shutdown bound, so
// no timeout is involved — and every Close must report the failure. A
// transport that redials and replays would heal the pair instead and
// leave the receives waiting.
func TestConnectionLossFailsEveryRank(t *testing.T) {
	const p = 4
	f, err := NewLoopbackConfig(p, Config{ShutdownTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	eps := f.(*fabric).eps
	failures := make(chan string, p)
	var exchanged sync.WaitGroup
	exchanged.Add(p)
	for r := 0; r < p; r++ {
		go func(e *Endpoint) {
			for d := 0; d < p; d++ {
				e.Send(d, 1, []byte{byte(e.rank)})
			}
			for s := 0; s < p; s++ {
				e.Release(e.Recv(s, 1))
			}
			exchanged.Done()
			failures <- fmt.Sprintf("rank %d: %s", e.rank, recvFailure(e, (e.rank+1)%p, 2))
		}(eps[r])
	}
	exchanged.Wait()
	time.Sleep(20 * time.Millisecond) // most likely every rank waits by now; either order must pass
	eps[0].conn(1).Close()
	deadline := time.After(2 * time.Second)
	for i := 0; i < p; i++ {
		select {
		case msg := <-failures:
			if !strings.Contains(msg, "connection to rank") {
				t.Errorf("pending Recv failed without naming the lost connection: %s", msg)
			}
		case <-deadline:
			t.Fatalf("%d of %d pending receives still block 2 s after the cut", p-i, p)
		}
	}
	for r, e := range eps {
		if err := e.Close(); err == nil {
			t.Errorf("rank %d: Close returned nil after the fabric failed", r)
		}
	}
}

// TestEOFWithoutGoodbyeFails: a peer's stream that ends cleanly at a frame
// boundary, but without the goodbye, is a lost connection, not a
// shutdown. The receiving endpoint fails naming the peer, and its
// teardown fails the peer in turn.
func TestEOFWithoutGoodbyeFails(t *testing.T) {
	f, err := NewLoopbackConfig(2, Config{ShutdownTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	a, b := f.(*fabric).eps[0], f.(*fabric).eps[1]
	a.Send(1, 1, []byte("whole frame"))
	if got := b.Recv(0, 1); string(got) != "whole frame" {
		t.Fatalf("got %q", got)
	}
	// The frame arrived whole, so the end of the stream lands on a frame
	// boundary.
	if err := a.conn(1).(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	const want = "connection to rank 0: closed without a goodbye"
	if msg := recvFailure(b, 0, 2); !strings.Contains(msg, want) {
		t.Fatalf("Recv after an EOF without a goodbye: %s", msg)
	}
	if err := b.Close(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("rank 1 Close: %v, want %q", err, want)
	}
	if err := a.Close(); err == nil {
		t.Fatal("rank 0 Close returned nil after its peer failed")
	}
}

// TestGoodbyeMarksPeerDeparted: rank 1 sends one frame and closes. Its
// goodbye marks it departed on rank 0, so a receive from it that nothing
// queued can satisfy fails naming rank 1 at once, instead of blocking
// until rank 0's own Close, while the frame sent before the goodbye stays
// receivable.
func TestGoodbyeMarksPeerDeparted(t *testing.T) {
	f, err := NewLoopbackConfig(2, Config{ShutdownTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	a, b := f.(*fabric).eps[0], f.(*fabric).eps[1]
	b.Send(0, 4, []byte("last words"))
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()

	failed := make(chan string, 1)
	go func() { failed <- recvFailure(a, 1, 5) }()
	select {
	case msg := <-failed:
		if !strings.Contains(msg, "rank 1 closed its endpoint") {
			t.Fatalf("Recv from the departed rank: %s", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv from a rank that closed its endpoint still blocks after 1 s")
	}
	if got := a.Recv(1, 4); string(got) != "last words" {
		t.Fatalf("frame sent before the goodbye: got %q", got)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("rank 0 Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("rank 1 Close: %v", err)
	}
}

// TestCloseInAnyOrderIsPrompt closes the endpoints of a 4-PE fabric one
// by one from a single goroutine, in several orders: a peer's reader
// answers a goodbye at once, so no Close waits for another endpoint's
// Close, and all of them return nil well before the 30 s shutdown bound.
// Machine.Run's abort over such a fabric closes every endpoint too, and
// the fabric's own Close afterwards finds nothing left to wait for: the
// waits overlap instead of adding up.
func TestCloseInAnyOrderIsPrompt(t *testing.T) {
	const p = 4
	cfg := Config{ShutdownTimeout: 30 * time.Second}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		f, err := NewLoopbackConfig(p, cfg)
		if err != nil {
			t.Fatalf("loopback fabric: %v", err)
		}
		for r := 0; r < p; r++ {
			for d := 0; d < p; d++ {
				f.Endpoint(r).Send(d, 1, []byte{byte(r)})
			}
		}
		for r := 0; r < p; r++ {
			for s := 0; s < p; s++ {
				f.Endpoint(r).Release(f.Endpoint(r).Recv(s, 1))
			}
		}
		start := time.Now()
		for _, r := range order {
			if err := f.Endpoint(r).Close(); err != nil {
				t.Fatalf("order %v: rank %d Close: %v", order, r, err)
			}
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("order %v: closing took %v", order, elapsed)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("order %v: fabric Close after its endpoints: %v", order, err)
		}
	}

	f, err := NewLoopbackConfig(p, cfg)
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	m := comm.NewOver(f)
	start := time.Now()
	err = m.Run(func(c *comm.Comm) error {
		if c.Rank() == 2 {
			return errors.New("rank 2 gives up")
		}
		c.Recv((c.Rank()+1)%p, 5)
		return nil
	})
	m.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Run's abort and the fabric's Close took %v", elapsed)
	}
	if err == nil || err.Error() != "rank 2 gives up" {
		t.Fatalf("Run: err = %v, want rank 2's error", err)
	}
}

// TestLateCloseOfPeerIsClean: rank 0 closes, and rank 1 goes on working
// for three times the shutdown bound before it closes too. Rank 1's reader
// answers rank 0's goodbye at once, so rank 0's Close does not wait for
// rank 1's work and both Closes return nil. A send to the departed rank 0
// in between panics naming it instead of queueing a frame nobody reads.
func TestLateCloseOfPeerIsClean(t *testing.T) {
	const bound = 300 * time.Millisecond
	f, err := NewLoopbackConfig(2, Config{ShutdownTimeout: bound})
	if err != nil {
		t.Fatalf("loopback fabric: %v", err)
	}
	a, b := f.(*fabric).eps[0], f.(*fabric).eps[1]
	a.Send(1, 1, []byte("work"))
	b.Release(b.Recv(0, 1))
	if err := a.Close(); err != nil {
		t.Fatalf("rank 0 Close: %v", err)
	}
	time.Sleep(3 * bound)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "send to rank 0 failed: rank 0 closed its endpoint") {
				t.Errorf("Send to the departed rank 0: %s", msg)
			}
		}()
		b.Send(0, 2, []byte("too late"))
	}()
	if err := b.Close(); err != nil {
		t.Fatalf("rank 1 Close %v after rank 0's: %v", 3*bound, err)
	}
}
