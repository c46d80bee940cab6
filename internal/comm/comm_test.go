package comm

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dss/internal/stats"
	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/codec"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
	"dss/internal/wire"
)

// ps is the set of PE counts exercised by every collective test, including
// non-powers of two and the degenerate single-PE machine.
var ps = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

// world is the group of all PEs in tag namespace 0.
func world(c *Comm) *Group { return NewGroup(c, WorldRanks(c.P()), 0) }

func TestSendRecvBasic(t *testing.T) {
	m := New(2)
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
			if got := c.Recv(1, 8); string(got) != "pong" {
				return fmt.Errorf("got %q", got)
			}
		} else {
			if got := c.Recv(0, 7); string(got) != "ping" {
				return fmt.Errorf("got %q", got)
			}
			c.Send(0, 8, []byte("pong"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	m := New(2)
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("original")
			c.Send(1, 1, buf)
			copy(buf, "MUTATED!")
			c.Send(1, 2, nil) // sync
		} else {
			got := c.Recv(0, 1)
			c.Recv(0, 2)
			if string(got) != "original" {
				return fmt.Errorf("payload aliased sender memory: %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesNonOvertakingSameTag(t *testing.T) {
	m := New(2)
	const k = 100
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got := c.Recv(0, 3)
				if len(got) != 1 || got[0] != byte(i) {
					return fmt.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectiveReceive(t *testing.T) {
	m := New(2)
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 10, []byte("ten"))
			c.Send(1, 20, []byte("twenty"))
		} else {
			// Receive in the opposite order of sending.
			if got := c.Recv(0, 20); string(got) != "twenty" {
				return fmt.Errorf("tag 20: got %q", got)
			}
			if got := c.Recv(0, 10); string(got) != "ten" {
				return fmt.Errorf("tag 10: got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendNotCounted(t *testing.T) {
	m := New(1)
	err := m.Run(func(c *Comm) error {
		c.Send(0, 1, []byte("loop"))
		if got := c.Recv(0, 1); string(got) != "loop" {
			return fmt.Errorf("self-send lost: %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Report().TotalBytesSent(); got != 0 {
		t.Fatalf("self-send counted as %d bytes of communication", got)
	}
}

func TestVolumeAccounting(t *testing.T) {
	m := New(2)
	err := m.Run(func(c *Comm) error {
		c.SetPhase(stats.PhaseExchange)
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1000))
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if got := r.TotalBytesSent(); got != 1000 {
		t.Fatalf("TotalBytesSent = %d, want 1000", got)
	}
	if got := r.TotalMessages(); got != 1 {
		t.Fatalf("TotalMessages = %d, want 1", got)
	}
	if got := r.PEs[1].Phases[stats.PhaseExchange].BytesRecv; got != 1000 {
		t.Fatalf("PE1 BytesRecv = %d, want 1000", got)
	}
}

func TestRunPropagatesError(t *testing.T) {
	m := New(3)
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunAbortsOnPanic lets one PE panic while every peer blocks in Recv
// from it: Run must close the endpoints, wake the peers, and return the
// panic itself within seconds — not hang, and not a peer's secondary
// closed-endpoint failure.
func TestRunAbortsOnPanic(t *testing.T) {
	tcpFabric, err := tcp.NewLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []transport.Fabric{local.New(4), tcpFabric} {
		m := NewOver(f)
		done := make(chan error, 1)
		go func() {
			done <- m.Run(func(c *Comm) error {
				if c.Rank() == 2 {
					time.Sleep(10 * time.Millisecond) // most likely the peers block first; either order must pass
					panic("rank 2 gives up")
				}
				c.Recv(2, 5)
				return nil
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "PE 2 panicked: rank 2 gives up") {
				t.Fatalf("%T: err = %v, want rank 2's panic", f, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%T: Run did not return after a PE panicked", f)
		}
		m.Close()
	}
}

// TestAbortedMachineRefusesNextRun: a run with a panicking rank closes every
// endpoint for good, so the next run on the same machine — local or tcp,
// whose sockets cannot reopen — must fail at once, saying why, instead of
// at its first receive from a closed endpoint.
func TestAbortedMachineRefusesNextRun(t *testing.T) {
	tcpFabric, err := tcp.NewLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []transport.Fabric{local.New(2), tcpFabric} {
		m := NewOver(f)
		err := m.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				panic("rank 1 gives up")
			}
			c.Recv(1, 5)
			return nil
		})
		if err == nil {
			t.Fatalf("%T: the failing run returned nil", f)
		}
		var ranks atomic.Int32
		err = m.Run(func(c *Comm) error {
			ranks.Add(1)
			c.Send(1-c.Rank(), 6, []byte("ping"))
			c.Recv(1-c.Rank(), 6)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "earlier run aborted this machine") || ranks.Load() != 0 {
			t.Fatalf("%T: the run after the abort returned %v with %d ranks started, want a refusal before any rank", f, err, ranks.Load())
		}
		m.Close()
	}
}

// TestRunFailsOnDepartedPeer: a rank that returns without error departs.
// What it sent before leaving stays receivable, the next run on the same
// fabric starts with every rank present again, and a peer that waits for a
// message only the departed rank could send fails the run naming it. It
// runs on the local fabric bare and under the two decorators, which must
// forward the departure (chaos after handing on the frames it still
// delays) and, caching their endpoints, still clear it for the next run.
// Run waited forever here before departures existed, and under the
// decorators before they forwarded them.
func TestRunFailsOnDepartedPeer(t *testing.T) {
	reorder, err := chaos.Parse("reorder")
	if err != nil {
		t.Fatal(err)
	}
	reorder.Seed = 11
	fabrics := []struct {
		name string
		make func() transport.Fabric
	}{
		{"local", func() transport.Fabric { return local.New(2) }},
		{"local+flate", func() transport.Fabric {
			f, err := codec.WrapFabric(local.New(2), codec.Config{Name: "flate"})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"local+chaos-reorder", func() transport.Fabric { return chaos.WrapFabric(local.New(2), reorder) }},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			m := NewOver(fab.make())
			defer m.Close()
			run := func(body func(c *Comm) error) error {
				t.Helper()
				done := make(chan error, 1)
				go func() { done <- m.Run(body) }()
				select {
				case err := <-done:
					return err
				case <-time.After(5 * time.Second):
					t.Fatal("Run did not return after a PE departed")
					return nil
				}
			}
			late := func(from, to int) func(c *Comm) error {
				return func(c *Comm) error {
					if c.Rank() == from {
						if from == 0 {
							time.Sleep(10 * time.Millisecond) // the receiver most likely waits first
						}
						c.Send(to, 5, bytes.Repeat([]byte("hi"), 64)) // long enough for the codec to encode
						return nil
					}
					if from == 1 {
						time.Sleep(10 * time.Millisecond) // the sender most likely departed first
					}
					if got := c.Recv(from, 5); !bytes.Equal(got, bytes.Repeat([]byte("hi"), 64)) {
						return fmt.Errorf("rank %d received %q from rank %d", to, got, from)
					}
					return nil
				}
			}
			if err := run(late(1, 0)); err != nil {
				t.Fatalf("a message sent before departing: %v", err)
			}
			if err := run(late(0, 1)); err != nil {
				t.Fatalf("the run after a departure: %v", err)
			}
			err := run(func(c *Comm) error {
				if c.Rank() == 0 {
					c.Recv(1, 5)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "rank 1 returned from the run") {
				t.Fatalf("err = %v, want a failure naming rank 1", err)
			}
		})
	}
}

// TestAllgatherReportRoundTrip gives every counter of every PE a distinct
// value and requires the gathered report to reproduce all of them on every
// rank — the wall spans grow only by the span the gather closes — and the
// string counts to arrive summed.
func TestAllgatherReportRoundTrip(t *testing.T) {
	const p = 3
	want := make([]stats.PE, p)
	for rank := range want {
		k := int64(1000 * (rank + 1))
		eachCounter(&want[rank], func(v *int64) { k++; *v = k })
	}
	counters := func(pe *stats.PE) (vs []int64) {
		eachCounter(pe, func(v *int64) { vs = append(vs, *v) })
		return vs
	}
	// Every int64 of stats.PE must travel: count them independently.
	var leaves func(v reflect.Value) int
	leaves = func(v reflect.Value) (n int) {
		switch v.Kind() {
		case reflect.Int64:
			return 1
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				n += leaves(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				n += leaves(v.Field(i))
			}
		}
		return n
	}
	if got, all := len(counters(&stats.PE{})), leaves(reflect.ValueOf(stats.PE{})); got != all {
		t.Fatalf("the snapshot carries %d of stats.PE's %d counters", got, all)
	}
	err := New(p).Run(func(c *Comm) error {
		*c.st = want[c.Rank()]
		rep, total := AllgatherReport(c, stats.DefaultModel(), 9, int64(10*c.Rank()+1))
		if total != 1+11+21 {
			return fmt.Errorf("PE %d: total %d, want 33", c.Rank(), total)
		}
		for i, got := range rep.PEs {
			g := *got
			for ph := range g.Wall {
				if g.Wall[ph] < want[i].Wall[ph] {
					return fmt.Errorf("PE %d: PE %d wall[%d] shrank", c.Rank(), i, ph)
				}
			}
			g.Wall = want[i].Wall
			if fmt.Sprint(counters(&g)) != fmt.Sprint(counters(&want[i])) {
				return fmt.Errorf("PE %d: PE %d counters %v, want %v", c.Rank(), i, counters(&g), counters(&want[i]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		counter := make([]int32, p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			counter[c.Rank()] = 1
			g.Barrier()
			// After the barrier every PE must see every counter set.
			for i := 0; i < p; i++ {
				if counter[i] != 1 {
					return fmt.Errorf("p=%d: PE %d passed barrier before PE %d arrived", p, c.Rank(), i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestIBarrierMatchesBarrier pins the message pattern Barrier shares with
// the split-phase IBarrier whose dissemination loop it now runs inline:
// exactly ⌈log₂ p⌉ empty messages per PE, billed to the current phase.
func TestIBarrierMatchesBarrier(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			c.SetPhase(stats.PhasePartition)
			world(c).Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds := int64(bits.Len(uint(p - 1)))
		for rank, pe := range m.pes {
			var want [stats.NumPhases]stats.PhaseCounters
			want[stats.PhasePartition].Messages = rounds
			if pe.Phases != want {
				t.Fatalf("p=%d rank=%d: counters %+v, want %d empty messages in the partition phase",
					p, rank, pe.Phases, rounds)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range ps {
		for root := 0; root < p; root += max(1, p/3) {
			m := New(p)
			payload := []byte(fmt.Sprintf("hello from %d", root))
			err := m.Run(func(c *Comm) error {
				g := world(c)
				var data []byte
				if c.Rank() == root {
					data = payload
				}
				got := g.Bcast(root, data)
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("p=%d root=%d rank=%d: got %q", p, root, c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBcastLogarithmicMessages(t *testing.T) {
	const p = 16
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := world(c)
		var data []byte
		if c.Rank() == 0 {
			data = make([]byte, 100)
		}
		g.Bcast(0, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial tree: exactly p-1 messages in total, and the root sends only
	// log2(p) of them.
	r := m.Report()
	if got := r.TotalMessages(); got != p-1 {
		t.Fatalf("bcast messages = %d, want %d", got, p-1)
	}
	if got := r.PEs[0].Total().Messages; got != 4 {
		t.Fatalf("root messages = %d, want log2(16)=4", got)
	}
}

func TestGatherv(t *testing.T) {
	for _, p := range ps {
		for root := 0; root < p; root += max(1, p/2) {
			m := New(p)
			err := m.Run(func(c *Comm) error {
				g := world(c)
				mine := []byte(fmt.Sprintf("pe%d", c.Rank()))
				parts := g.Gatherv(root, mine)
				if c.Rank() != root {
					if parts != nil {
						return fmt.Errorf("non-root got parts")
					}
					return nil
				}
				if len(parts) != p {
					return fmt.Errorf("got %d parts, want %d", len(parts), p)
				}
				for i, part := range parts {
					if string(part) != fmt.Sprintf("pe%d", i) {
						return fmt.Errorf("part %d = %q", i, part)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllgatherv(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			mine := []byte(fmt.Sprintf("data-%d", c.Rank()*c.Rank()))
			parts := g.Allgatherv(mine)
			if len(parts) != p {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for i, part := range parts {
				want := fmt.Sprintf("data-%d", i*i)
				if string(part) != want {
					return fmt.Errorf("part %d = %q, want %q", i, part, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestIAllgathervMatchesAllgatherv pins the traffic Allgatherv shares with
// the split-phase IAllgatherv whose gather and broadcast loops it now runs
// inline: 2(p−1) messages machine-wide (one gather and one broadcast
// message per member but the root) of a pinned byte volume, all billed to
// the current phase and received in full.
func TestIAllgathervMatchesAllgatherv(t *testing.T) {
	wantBytes := map[int]int64{1: 0, 2: 26, 3: 68, 4: 134, 5: 213, 7: 443, 8: 594, 13: 1617, 16: 2521}
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			c.SetPhase(stats.PhasePartition)
			world(c).Allgatherv([]byte(fmt.Sprintf("data-%d", c.Rank()*c.Rank())))
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var sum stats.PhaseCounters
		for rank, pe := range m.pes {
			for ph, c := range pe.Phases {
				if ph != int(stats.PhasePartition) && c != (stats.PhaseCounters{}) {
					t.Fatalf("p=%d rank=%d: %+v billed to phase %v", p, rank, c, stats.Phase(ph))
				}
			}
			sum.BytesSent += pe.Phases[stats.PhasePartition].BytesSent
			sum.BytesRecv += pe.Phases[stats.PhasePartition].BytesRecv
			sum.Messages += pe.Phases[stats.PhasePartition].Messages
		}
		if sum.Messages != int64(2*(p-1)) || sum.BytesRecv != sum.BytesSent || sum.BytesSent != wantBytes[p] {
			t.Errorf("p=%d: machine-wide %+v, want %d messages and %d bytes sent and received",
				p, sum, 2*(p-1), wantBytes[p])
		}
	}
}

// TestIAllgathervCallerKeepsOwnership pins the buffer-ownership contract
// Allgatherv kept from the split-phase IAllgatherv: no result aliases the
// caller's contribution, so the caller may mutate or reuse its buffer once
// the call returns, on leaves and inner tree nodes alike.
func TestIAllgathervCallerKeepsOwnership(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			buf := []byte(fmt.Sprintf("orig-%d", c.Rank()))
			parts := world(c).Allgatherv(buf)
			copy(buf, "MUTATED!!") // the caller reuses its buffer
			for i, part := range parts {
				want := fmt.Sprintf("orig-%d", i)
				if string(part) != want {
					return fmt.Errorf("member %d: got %q, want %q", i, part, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			parts := make([][]byte, p)
			for dst := 0; dst < p; dst++ {
				parts[dst] = []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
			}
			got := g.Alltoallv(parts)
			for _, part := range parts {
				clear(part) // the caller may reuse its buffers: no result aliases a part
			}
			for src := 0; src < p; src++ {
				want := fmt.Sprintf("%d->%d", src, c.Rank())
				if string(got[src]) != want {
					return fmt.Errorf("from %d: got %q, want %q", src, got[src], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestReduceUint64(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			vals := []uint64{uint64(c.Rank()), 1, uint64(c.Rank() * 10)}
			res := g.ReduceUint64(0, vals, Sum)
			if c.Rank() != 0 {
				if res != nil {
					return fmt.Errorf("non-root got result")
				}
				return nil
			}
			wantSum := uint64(p * (p - 1) / 2)
			if res[0] != wantSum || res[1] != uint64(p) || res[2] != wantSum*10 {
				return fmt.Errorf("reduce = %v", res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			got := g.AllreduceUint64([]uint64{uint64(c.Rank() + 5)}, Max)
			if got[0] != uint64(p+4) {
				return fmt.Errorf("max = %d, want %d", got[0], p+4)
			}
			got = g.AllreduceUint64([]uint64{uint64(c.Rank() + 5)}, func(a, b uint64) uint64 { return min(a, b) })
			if got[0] != 5 {
				return fmt.Errorf("min = %d, want 5", got[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestExscan(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			prefix, total := g.ExscanUint64(uint64(c.Rank() + 1))
			wantPrefix := uint64(c.Rank() * (c.Rank() + 1) / 2)
			wantTotal := uint64(p * (p + 1) / 2)
			if prefix != wantPrefix || total != wantTotal {
				return fmt.Errorf("exscan = (%d,%d), want (%d,%d)", prefix, total, wantPrefix, wantTotal)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestSubgroupCollectives(t *testing.T) {
	// Two disjoint groups run collectives concurrently with distinct gids.
	const p = 8
	m := New(p)
	err := m.Run(func(c *Comm) error {
		var ranks []int
		gid := 1
		if c.Rank()%2 == 0 {
			ranks = []int{0, 2, 4, 6}
		} else {
			ranks = []int{1, 3, 5, 7}
			gid = 2
		}
		g := NewGroup(c, ranks, gid)
		if len(g.ranks) != 4 || g.Idx() != c.Rank()/2 {
			return fmt.Errorf("rank %d: %d members, Idx = %d; want 4 and %d", c.Rank(), len(g.ranks), g.Idx(), c.Rank()/2)
		}
		got := g.AllreduceUint64([]uint64{uint64(c.Rank())}, Sum)
		want := uint64(0 + 2 + 4 + 6)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if got[0] != want {
			return fmt.Errorf("rank %d: group sum = %d, want %d", c.Rank(), got[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceBytesOrdered(t *testing.T) {
	// String concatenation is associative but not commutative: the reduce
	// must combine payloads strictly in group index order.
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := world(c)
			mine := []byte{byte('a' + c.Rank())}
			res := g.ReduceBytes(0, mine, func(lo, hi []byte) []byte {
				return append(append([]byte{}, lo...), hi...)
			})
			if c.Rank() != 0 {
				return nil
			}
			want := make([]byte, p)
			for i := range want {
				want[i] = byte('a' + i)
			}
			if !bytes.Equal(res, want) {
				return fmt.Errorf("reduce order: got %q, want %q", res, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestMachineReuseAndReset(t *testing.T) {
	m := New(2)
	body := func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 10))
		} else {
			c.Recv(0, 1)
		}
		return nil
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	if got := m.Report().TotalBytesSent(); got != 20 {
		t.Fatalf("accumulated volume = %d, want 20", got)
	}
	m.ResetStats()
	if got := m.Report().TotalBytesSent(); got != 0 {
		t.Fatalf("volume after reset = %d", got)
	}
}

func TestModelTimeMonotoneInVolume(t *testing.T) {
	run := func(size int) float64 {
		m := New(4)
		err := m.Run(func(c *Comm) error {
			c.SetPhase(stats.PhaseExchange)
			g := world(c)
			parts := make([][]byte, 4)
			for i := range parts {
				parts[i] = make([]byte, size)
			}
			g.Alltoallv(parts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Report().ModelTime()
	}
	small, large := run(100), run(100000)
	if large <= small {
		t.Fatalf("model time not monotone: %g <= %g", large, small)
	}
}

func TestWirePayloadThroughMachine(t *testing.T) {
	// Round-trip an LCP-compressed string run through a real exchange.
	m := New(2)
	ss := [][]byte{[]byte("alpha"), []byte("alphabet"), []byte("alps")}
	lcps := []int32{0, 5, 2}
	err := m.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, wire.EncodeStringsLCP(ss, lcps))
			return nil
		}
		got, gotLCP, err := wire.DecodeStringsLCP(c.Recv(0, 1))
		if err != nil {
			return err
		}
		for i := range ss {
			if !bytes.Equal(got[i], ss[i]) {
				return fmt.Errorf("string %d = %q", i, got[i])
			}
		}
		if gotLCP[1] != 5 || gotLCP[2] != 2 {
			return fmt.Errorf("lcps = %v", gotLCP)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
