// Package conformance is a backend-independent test suite for the
// transport contract. Every backend must deliver MPI-like point-to-point
// semantics — payload isolation, ownership transfer of given buffers,
// per-pair non-overtaking order, tag-selective receives, deadlock-free
// eager sends — and the comm layer's
// collectives and byte accounting silently depend on all of them. Backend
// test files call Run with a fabric factory; the suite itself never imports
// a backend.
package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dss/internal/transport"
)

// Factory produces a connected fabric with p endpoints. Fabrics are closed
// by the suite.
type Factory func(tb testing.TB, p int) transport.Fabric

// Run executes the conformance suite against fabrics produced by the
// factory. Each case runs as a subtest on its own fabric.
func Run(t *testing.T, newFabric Factory) {
	cases := []struct {
		name string
		p    int
		fn   func(t *testing.T, f transport.Fabric)
	}{
		{"RankMetadata", 5, testRankMetadata},
		{"PingPong", 2, testPingPong},
		{"PayloadIsolation", 2, testPayloadIsolation},
		{"NonOvertakingSameTag", 2, testNonOvertaking},
		{"TagSelectiveReceive", 2, testTagSelective},
		{"SelfSendDelivery", 1, testSelfSend},
		{"EmptyPayload", 2, testEmptyPayload},
		{"LargePayload", 2, testLargePayload},
		{"ReleaseRecycling", 2, testReleaseRecycling},
		{"EagerSendsNoDeadlock", 4, testEagerSends},
		{"RecvAnyDrainsAllSources", 5, testRecvAnyDrains},
		{"RecvAnyTagSelective", 2, testRecvAnyTagSelective},
		{"ConcurrentStress", 5, testConcurrentStress},
		{"GiveDeliversByteExact", 2, testGiveExact},
		{"GiveAndSendNonOvertaking", 2, testGiveSendOrder},
		{"SelfGive", 1, testSelfGive},
		{"ZeroLengthGive", 2, testZeroLengthGive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(t, tc.p)
			defer f.Close()
			if f.P() != tc.p {
				t.Fatalf("fabric P = %d, want %d", f.P(), tc.p)
			}
			tc.fn(t, f)
		})
	}
}

// runPEs executes body once per endpoint, concurrently, and fails the test
// on the first error.
func runPEs(t *testing.T, f transport.Fabric, body func(tr transport.Transport) error) {
	t.Helper()
	p := f.P()
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(f.Endpoint(rank))
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("PE %d: %v", rank, err)
		}
	}
}

func testRankMetadata(t *testing.T, f transport.Fabric) {
	for rank := 0; rank < f.P(); rank++ {
		e := f.Endpoint(rank)
		if e.Rank() != rank {
			t.Fatalf("endpoint %d reports rank %d", rank, e.Rank())
		}
		if e.P() != f.P() {
			t.Fatalf("endpoint %d reports P=%d, want %d", rank, e.P(), f.P())
		}
	}
}

func testPingPong(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			tr.Send(1, 7, []byte("ping"))
			if got := tr.Recv(1, 8); string(got) != "pong" {
				return fmt.Errorf("got %q", got)
			}
		} else {
			if got := tr.Recv(0, 7); string(got) != "ping" {
				return fmt.Errorf("got %q", got)
			}
			tr.Send(0, 8, []byte("pong"))
		}
		return nil
	})
}

// testPayloadIsolation checks both halves of payload ownership: mutating
// the source buffer after Send must not affect the delivered message, and
// the receiver's buffer must hold a private copy rather than alias the
// sender's memory.
func testPayloadIsolation(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			buf := []byte("original")
			tr.Send(1, 1, buf)
			copy(buf, "MUTATED!")
			tr.Send(1, 2, buf)
			return nil
		}
		got := tr.Recv(0, 1)
		// Non-overtaking order guarantees the second message arrives after
		// the first, so by the time both are here the sender has mutated.
		got2 := tr.Recv(0, 2)
		if string(got) != "original" {
			return fmt.Errorf("payload aliased sender memory: %q", got)
		}
		if string(got2) != "MUTATED!" {
			return fmt.Errorf("second payload = %q", got2)
		}
		return nil
	})
}

func testNonOvertaking(t *testing.T, f transport.Fabric) {
	const k = 200
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			for i := 0; i < k; i++ {
				tr.Send(1, 3, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < k; i++ {
			got := tr.Recv(0, 3)
			if len(got) != 1 || got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %v", i, got)
			}
		}
		return nil
	})
}

func testTagSelective(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			tr.Send(1, 10, []byte("ten"))
			tr.Send(1, 20, []byte("twenty"))
			// Collective-style wide tags (gid<<32|seq) must survive framing.
			tr.Send(1, 5<<32|7, []byte("wide"))
			return nil
		}
		// Receive in the opposite order of sending.
		if got := tr.Recv(0, 5<<32|7); string(got) != "wide" {
			return fmt.Errorf("wide tag: got %q", got)
		}
		if got := tr.Recv(0, 20); string(got) != "twenty" {
			return fmt.Errorf("tag 20: got %q", got)
		}
		if got := tr.Recv(0, 10); string(got) != "ten" {
			return fmt.Errorf("tag 10: got %q", got)
		}
		return nil
	})
}

func testSelfSend(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		tr.Send(0, 1, []byte("loop"))
		if got := tr.Recv(0, 1); string(got) != "loop" {
			return fmt.Errorf("self-send lost: %q", got)
		}
		return nil
	})
}

func testEmptyPayload(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		partner := 1 - tr.Rank()
		tr.Send(partner, 1, nil)
		tr.Send(partner, 1, []byte{})
		tr.Send(partner, 2, []byte("end"))
		for i := 0; i < 2; i++ {
			if got := tr.Recv(partner, 1); len(got) != 0 {
				return fmt.Errorf("empty message %d carries %d bytes", i, len(got))
			}
		}
		if got := tr.Recv(partner, 2); string(got) != "end" {
			return fmt.Errorf("trailer = %q", got)
		}
		return nil
	})
}

func testLargePayload(t *testing.T, f transport.Fabric) {
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 2654435761)
	}
	runPEs(t, f, func(tr transport.Transport) error {
		partner := 1 - tr.Rank()
		tr.Send(partner, 1, big)
		got := tr.Recv(partner, 1)
		if !bytes.Equal(got, big) {
			return fmt.Errorf("large payload corrupted")
		}
		return nil
	})
}

// testReleaseRecycling checks that releasing received buffers back into the
// pool never lets a recycled buffer leak into a later, still-referenced
// message.
func testReleaseRecycling(t *testing.T, f transport.Fabric) {
	const rounds = 64
	runPEs(t, f, func(tr transport.Transport) error {
		partner := 1 - tr.Rank()
		for r := 0; r < rounds; r++ {
			msg := []byte(fmt.Sprintf("round-%03d-from-%d", r, tr.Rank()))
			tr.Send(partner, 1, msg)
			got := tr.Recv(partner, 1)
			want := fmt.Sprintf("round-%03d-from-%d", r, partner)
			if string(got) != want {
				return fmt.Errorf("round %d: got %q, want %q", r, got, want)
			}
			tr.Release(got)
		}
		return nil
	})
}

// testEagerSends checks deadlock freedom of the all-to-all pattern every
// collective reduces to: all PEs send everything before receiving anything.
func testEagerSends(t *testing.T, f transport.Fabric) {
	p := f.P()
	payload := func(src, dst int) []byte {
		b := make([]byte, 64<<10)
		for i := range b {
			b[i] = byte(src*31 + dst*17 + i)
		}
		return b
	}
	runPEs(t, f, func(tr transport.Transport) error {
		for dst := 0; dst < p; dst++ {
			tr.Send(dst, 1, payload(tr.Rank(), dst))
		}
		for src := 0; src < p; src++ {
			got := tr.Recv(src, 1)
			if !bytes.Equal(got, payload(src, tr.Rank())) {
				return fmt.Errorf("payload from %d corrupted", src)
			}
			tr.Release(got)
		}
		return nil
	})
}

// testRecvAnyDrains checks the any-source receive primitive the split-phase
// collectives rely on: every other rank sends one message to rank 0 (with
// deliberate per-sender delays so arrivals interleave), and rank 0 drains
// them in arrival order with RecvAny, seeing each source exactly once.
// Self-sends must be eligible sources too.
func testRecvAnyDrains(t *testing.T, f transport.Fabric) {
	p := f.P()
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() != 0 {
			// Staggered sends: later arrivals land while the receiver is
			// already inside RecvAny, exercising the wait-notify path as
			// well as the already-queued fast path.
			time.Sleep(time.Duration(tr.Rank()) * 3 * time.Millisecond)
			tr.Send(0, 9, []byte{byte(tr.Rank())})
			return nil
		}
		tr.Send(0, 9, []byte{0}) // self-send is a valid RecvAny source
		srcs := make([]int, p)
		for i := range srcs {
			srcs[i] = i
		}
		seen := make([]bool, p)
		var prev time.Time
		for i := 0; i < p; i++ {
			src, data, arrived := tr.RecvAny(srcs, 9)
			if len(data) != 1 || int(data[0]) != src {
				return fmt.Errorf("RecvAny: payload %v from %d", data, src)
			}
			if seen[src] {
				return fmt.Errorf("RecvAny returned source %d twice", src)
			}
			if arrived.IsZero() || arrived.After(time.Now()) {
				return fmt.Errorf("RecvAny: implausible arrival stamp %v from %d", arrived, src)
			}
			// Arrival order: even when several payloads are already queued
			// (the stagger above guarantees some queue up while earlier
			// ones are processed), RecvAny must hand them out oldest
			// first. The contract allows an inversion bounded by one scan
			// width (a push racing the scan); the senders are staggered
			// milliseconds apart, so a 1 ms tolerance separates that
			// benign race from genuine misordering.
			if arrived.Before(prev.Add(-time.Millisecond)) {
				return fmt.Errorf("RecvAny out of arrival order: %v from %d after %v", arrived, src, prev)
			}
			prev = arrived
			seen[src] = true
			tr.Release(data)
		}
		return nil
	})
}

// testRecvAnyTagSelective checks that RecvAny ignores pending messages with
// other tags and coexists with targeted Recv on those tags.
func testRecvAnyTagSelective(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			tr.Send(1, 10, []byte("decoy"))
			tr.Send(1, 11, []byte("wanted"))
			return nil
		}
		src, data, _ := tr.RecvAny([]int{0}, 11)
		if src != 0 || string(data) != "wanted" {
			return fmt.Errorf("RecvAny tag 11: got %q from %d", data, src)
		}
		if got := tr.Recv(0, 10); string(got) != "decoy" {
			return fmt.Errorf("tag 10 after RecvAny: got %q", got)
		}
		return nil
	})
}

// testConcurrentStress floods the fabric with a deterministic random plan
// of messages between every pair with random tags and sizes, then verifies
// that every payload arrives intact and in per-(pair, tag) FIFO order.
func testConcurrentStress(t *testing.T, f transport.Fabric) {
	p := f.P()
	const rounds = 400
	type msg struct {
		tag  int
		size int
	}
	plan := make([][][]msg, p) // plan[src][dst] = ordered messages
	rng := rand.New(rand.NewSource(7))
	for src := 0; src < p; src++ {
		plan[src] = make([][]msg, p)
		for r := 0; r < rounds; r++ {
			dst := rng.Intn(p)
			plan[src][dst] = append(plan[src][dst], msg{tag: 1 + rng.Intn(3), size: rng.Intn(300)})
		}
	}
	payload := func(src, dst, k, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(src*31 + dst*17 + k*7 + i)
		}
		return b
	}
	runPEs(t, f, func(tr transport.Transport) error {
		src := tr.Rank()
		// Send everything first (sends never block).
		for dst := 0; dst < p; dst++ {
			for k, mm := range plan[src][dst] {
				tr.Send(dst, mm.tag, payload(src, dst, k, mm.size))
			}
		}
		// Receive per source in per-tag FIFO order.
		for from := 0; from < p; from++ {
			byTag := map[int][]int{} // tag → ordered indices into plan
			for k, mm := range plan[from][tr.Rank()] {
				byTag[mm.tag] = append(byTag[mm.tag], k)
			}
			for tag, idxs := range byTag {
				for _, k := range idxs {
					mm := plan[from][tr.Rank()][k]
					got := tr.Recv(from, tag)
					want := payload(from, tr.Rank(), k, mm.size)
					if !bytes.Equal(got, want) {
						return fmt.Errorf("message %d from %d tag %d corrupted", k, from, tag)
					}
					tr.Release(got)
				}
			}
		}
		return nil
	})
}

// pattern fills b with bytes that depend on every coordinate of a message,
// so a misrouted, truncated or recycled buffer never compares equal.
func pattern(b []byte, src, dst, k int) []byte {
	for i := range b {
		b[i] = byte(src*131 + dst*31 + k*7 + i*i>>3 + i)
	}
	return b
}

// testGiveExact checks the ownership-transferring path end to end: Alloc
// returns the requested length, and a given buffer arrives byte-exact at
// sizes on both sides of the pool's class/exact-size boundary and of the
// TCP reader's probe chunk.
func testGiveExact(t *testing.T, f transport.Fabric) {
	sizes := []int{1, 100, 4096, 64<<10 + 3, 1 << 20, 3<<20 + 5}
	runPEs(t, f, func(tr transport.Transport) error {
		partner := 1 - tr.Rank()
		for k, n := range sizes {
			buf := tr.Alloc(n)
			if len(buf) != n {
				return fmt.Errorf("Alloc(%d) returned %d bytes", n, len(buf))
			}
			tr.Give(partner, 1, pattern(buf, tr.Rank(), partner, k))
		}
		for k, n := range sizes {
			got := tr.Recv(partner, 1)
			if !bytes.Equal(got, pattern(make([]byte, n), partner, tr.Rank(), k)) {
				return fmt.Errorf("given buffer %d (%d bytes) arrived corrupted (%d bytes)", k, n, len(got))
			}
			tr.Release(got)
		}
		return nil
	})
}

// testGiveSendOrder interleaves the copying and the ownership-transferring
// call on one (pair, tag) stream: they share one delivery path, so the
// stream stays non-overtaking.
func testGiveSendOrder(t *testing.T, f transport.Fabric) {
	const k = 200
	runPEs(t, f, func(tr transport.Transport) error {
		if tr.Rank() == 0 {
			for i := 0; i < k; i++ {
				if i%3 == 0 {
					tr.Send(1, 3, []byte{byte(i), 's'})
				} else {
					buf := tr.Alloc(2)
					buf[0], buf[1] = byte(i), 'g'
					tr.Give(1, 3, buf)
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			got := tr.Recv(0, 3)
			if len(got) != 2 || got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %v", i, got)
			}
			tr.Release(got)
		}
		return nil
	})
}

func testSelfGive(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		tr.Give(0, 1, pattern(tr.Alloc(1000), 0, 0, 0))
		got := tr.Recv(0, 1)
		if !bytes.Equal(got, pattern(make([]byte, 1000), 0, 0, 0)) {
			return fmt.Errorf("self-given buffer corrupted (%d bytes)", len(got))
		}
		tr.Release(got)
		return nil
	})
}

// testZeroLengthGive gives both shapes of an empty message: Alloc(0), and
// an allocated buffer cut to zero length the way an encoder with nothing
// to write leaves it.
func testZeroLengthGive(t *testing.T, f transport.Fabric) {
	runPEs(t, f, func(tr transport.Transport) error {
		partner := 1 - tr.Rank()
		tr.Give(partner, 1, tr.Alloc(0))
		tr.Give(partner, 1, tr.Alloc(64)[:0])
		tr.Give(partner, 2, append(tr.Alloc(3)[:0], "end"...))
		for i := 0; i < 2; i++ {
			got := tr.Recv(partner, 1)
			if len(got) != 0 {
				return fmt.Errorf("empty message %d carries %d bytes", i, len(got))
			}
			tr.Release(got)
		}
		if got := tr.Recv(partner, 2); string(got) != "end" {
			return fmt.Errorf("trailer = %q", got)
		}
		return nil
	})
}
