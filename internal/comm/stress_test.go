package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/stats"
)

// TestRandomizedTrafficIntegrity floods the machine with random messages
// from every PE to every PE with random tags and sizes, then verifies that
// every payload arrives intact, in per-(pair, tag) FIFO order, and that
// the byte accounting matches exactly what was sent.
func TestRandomizedTrafficIntegrity(t *testing.T) {
	const p = 6
	const rounds = 300
	m := New(p)
	// Deterministic plan computed up-front so receivers know what to expect.
	type msg struct {
		tag  int
		size int
	}
	plan := make([][][]msg, p) // plan[src][dst] = ordered messages
	rng := rand.New(rand.NewSource(7))
	var totalBytes int64
	var totalMsgs int64
	for src := 0; src < p; src++ {
		plan[src] = make([][]msg, p)
		for r := 0; r < rounds; r++ {
			dst := rng.Intn(p)
			mm := msg{tag: 1 + rng.Intn(3), size: rng.Intn(200)}
			plan[src][dst] = append(plan[src][dst], mm)
			if dst != src {
				totalBytes += int64(mm.size)
				totalMsgs++
			}
		}
	}
	payload := func(src, dst, k, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(src*31 + dst*17 + k*7 + i)
		}
		return b
	}
	err := m.Run(func(c *Comm) error {
		c.SetPhase(stats.PhaseExchange)
		src := c.Rank()
		// Send everything first (sends never block).
		for dst := 0; dst < p; dst++ {
			for k, mm := range plan[src][dst] {
				c.Send(dst, mm.tag, payload(src, dst, k, mm.size))
			}
		}
		// Receive per source in per-tag FIFO order.
		for from := 0; from < p; from++ {
			byTag := map[int][]int{} // tag → ordered indices into plan
			for k, mm := range plan[from][c.Rank()] {
				byTag[mm.tag] = append(byTag[mm.tag], k)
			}
			for tag, idxs := range byTag {
				for _, k := range idxs {
					mm := plan[from][c.Rank()][k]
					got := c.Recv(from, tag)
					want := payload(from, c.Rank(), k, mm.size)
					if !bytes.Equal(got, want) {
						return fmt.Errorf("PE %d: message %d from %d tag %d corrupted",
							c.Rank(), k, from, tag)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if got := rep.TotalBytesSent(); got != totalBytes {
		t.Fatalf("accounting drift: %d bytes counted, %d sent", got, totalBytes)
	}
	if got := rep.TotalMessages(); got != totalMsgs {
		t.Fatalf("message count drift: %d counted, %d sent", got, totalMsgs)
	}
}

// TestConcurrentCollectiveSequences runs many collectives back to back on
// the same group and checks each result, guarding against tag reuse bugs.
func TestConcurrentCollectiveSequences(t *testing.T) {
	const p = 5
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := world(c)
		for round := 0; round < 50; round++ {
			sum := g.AllreduceUint64([]uint64{uint64(c.Rank() + round)}, Sum)[0]
			want := uint64(p*round + p*(p-1)/2)
			if sum != want {
				return fmt.Errorf("round %d: sum %d, want %d", round, sum, want)
			}
			payload := []byte(fmt.Sprintf("round-%d", round))
			got := g.Bcast(round%p, payloadIf(c.Rank() == round%p, payload))
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("round %d: bcast got %q", round, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func payloadIf(cond bool, b []byte) []byte {
	if cond {
		return b
	}
	return nil
}

// TestLargePayloads pushes multi-megabyte messages through collectives.
func TestLargePayloads(t *testing.T) {
	const p = 4
	m := New(p)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 2654435761)
	}
	err := m.Run(func(c *Comm) error {
		g := world(c)
		var data []byte
		if c.Rank() == 2 {
			data = big
		}
		got := g.Bcast(2, data)
		if !bytes.Equal(got, big) {
			return fmt.Errorf("PE %d: large bcast corrupted", c.Rank())
		}
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = big[:1<<20]
		}
		recv := g.Alltoallv(parts)
		for i := range recv {
			if !bytes.Equal(recv[i], big[:1<<20]) {
				return fmt.Errorf("PE %d: large alltoall corrupted from %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyPEs exercises a machine larger than GOMAXPROCS.
func TestManyPEs(t *testing.T) {
	const p = 100
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := world(c)
		sum := g.AllreduceUint64([]uint64{1}, Sum)[0]
		if sum != p {
			return fmt.Errorf("sum = %d", sum)
		}
		prefix, total := g.ExscanUint64(uint64(c.Rank()))
		if total != p*(p-1)/2 {
			return fmt.Errorf("total = %d", total)
		}
		_ = prefix
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
