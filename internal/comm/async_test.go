package comm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dss/internal/stats"
)

// phaseCounters extracts the deterministic per-phase counters of every PE.
// Wall and Overlap are wall-clock measurements and deliberately excluded:
// the differential guarantee of the split-phase layer covers exactly the
// counters the model time and the figures are computed from.
func phaseCounters(m *Machine) [][stats.NumPhases]stats.PhaseCounters {
	out := make([][stats.NumPhases]stats.PhaseCounters, len(m.pes))
	for i, pe := range m.pes {
		out[i] = pe.Phases
	}
	return out
}

// alltoallParts builds a deterministic, size-skewed payload set.
func alltoallParts(rank, p int) [][]byte {
	parts := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		parts[dst] = alltoallPart(rank, dst)
	}
	return parts
}

// alltoallPart is the payload member src sends to member dst.
func alltoallPart(src, dst int) []byte {
	return bytes.Repeat([]byte{byte(src*31 + dst)}, (src+dst*7)%97)
}

// postStaged opens a staged exchange and posts every other member's part,
// copied into a transport buffer, in reverse order (posting order is free).
// Each buffer is stored in posted[dst] before it is posted.
func postStaged(c *Comm, parts, posted [][]byte) *Pending {
	p := len(parts)
	pd := world(c).IAlltoallvStaged()
	for i := p - 1; i >= 1; i-- {
		dst := (i + c.Rank()) % p
		posted[dst] = append(c.Alloc(len(parts[dst]))[:0], parts[dst]...)
		pd.Post(dst, posted[dst])
	}
	return pd
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestIAlltoallvPollAnyDrain drains a staged exchange with PollAny (arrival
// order) in a later phase than the one it was opened in, and checks that
// every other member's payload arrives exactly once, intact, that the own
// index is never yielded, that the counters equal the blocking Alltoallv's
// (everything billed to the opening phase), and that releasing each payload
// exactly once is pool-safe (the -race CI job runs this).
func TestIAlltoallvPollAnyDrain(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			c.SetPhase(stats.PhaseExchange)
			pd := postStaged(c, alltoallParts(c.Rank(), p), make([][]byte, p))
			c.SetPhase(stats.PhaseMerge) // drain in a later phase, like the sorters
			seen := make([]bool, p)
			for {
				src, data, ok := pd.PollAny()
				if !ok {
					break
				}
				if src == c.Rank() {
					return fmt.Errorf("own index %d yielded", src)
				}
				if seen[src] {
					return fmt.Errorf("source %d drained twice", src)
				}
				seen[src] = true
				if !bytes.Equal(data, alltoallPart(src, c.Rank())) {
					return fmt.Errorf("payload from %d corrupted", src)
				}
				c.Release(data)
			}
			for src, s := range seen {
				if !s && src != c.Rank() {
					return fmt.Errorf("source %d never drained", src)
				}
			}
			if _, _, ok := pd.PollAny(); ok {
				return fmt.Errorf("PollAny yielded after the last member")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		blocking := New(p)
		err = blocking.Run(func(c *Comm) error {
			c.SetPhase(stats.PhaseExchange)
			out := world(c).Alltoallv(alltoallParts(c.Rank(), p))
			c.Release(out...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := phaseCounters(m), phaseCounters(blocking)
		for rank := range a {
			if a[rank] != b[rank] {
				t.Fatalf("p=%d rank=%d: staged drain moved counters between phases:\nstaged:   %+v\nblocking: %+v",
					p, rank, a[rank], b[rank])
			}
		}
	}
}

// TestOverlapCreditedForHiddenComm is the deterministic, scheduler-proof
// anchor of the overlap model (the acceptance assertion "overlap-ms > 0"):
// one PE delays its posts by a fixed 20 ms, the others spend ~1 ms of
// "decode" per drained run, so every non-straggler PE provably executes
// compute while the straggler's payload is still in flight. The credited
// overlap must be positive and bounded by the straggler's delay; the
// straggler itself (whose payloads all arrived before it posted) earns
// none. Sleeps stand in for compute deliberately — they are non-blocked
// time to the Pending regardless of GOMAXPROCS or runner load.
func TestOverlapCreditedForHiddenComm(t *testing.T) {
	const p = 4
	const stragglerDelay = 20 * time.Millisecond
	m := New(p)
	overlap := make([]int64, p)
	err := m.Run(func(c *Comm) error {
		c.SetPhase(stats.PhaseExchange)
		if c.Rank() == p-1 {
			time.Sleep(stragglerDelay)
		}
		pd := postStaged(c, alltoallParts(c.Rank(), p), make([][]byte, p))
		for {
			_, data, ok := pd.PollAny()
			if !ok {
				break
			}
			time.Sleep(time.Millisecond) // stand-in for decode compute
			c.Release(data)
		}
		overlap[c.Rank()] = c.StatsPE().Overlap[stats.PhaseExchange]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p-1; rank++ {
		if overlap[rank] <= 0 {
			t.Errorf("rank %d: no overlap credited despite decoding under a %v straggler", rank, stragglerDelay)
		}
		if got := time.Duration(overlap[rank]); got > stragglerDelay+stragglerDelay/2 {
			t.Errorf("rank %d: overlap %v exceeds any plausible in-flight span", rank, got)
		}
	}
}

// TestStagedPostTakesOwnership pins Post's hand-over on the local
// transport: the receiver gets the very buffer the sender posted, not a
// copy of it, with the bytes Alltoallv delivers.
func TestStagedPostTakesOwnership(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		posted := make([][][]byte, p) // posted[src][dst], written before the Post
		for src := range posted {
			posted[src] = make([][]byte, p)
		}
		err := m.Run(func(c *Comm) error {
			pd := postStaged(c, alltoallParts(c.Rank(), p), posted[c.Rank()])
			for {
				src, data, ok := pd.PollAny()
				if !ok {
					return nil
				}
				if !bytes.Equal(data, alltoallPart(src, c.Rank())) {
					return fmt.Errorf("rank %d: payload from %d corrupted", c.Rank(), src)
				}
				if sent := posted[src][c.Rank()]; len(sent) > 0 && &data[0] != &sent[0] {
					return fmt.Errorf("rank %d: part from %d was copied, not handed over", c.Rank(), src)
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestStagedOwnIndexRejected pins the caller's own index as outside the
// exchange: Post of the own index panics, draining before the last of the
// n-1 Posts panics, and after it the exchange drains.
func TestStagedOwnIndexRejected(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g, me := world(c), c.Rank()
			pd := g.IAlltoallvStaged()
			if !panics(func() { pd.Post(me, c.Alloc(0)) }) {
				return fmt.Errorf("rank %d: Post of the own index accepted", me)
			}
			for i := 1; i < p; i++ {
				if !panics(func() { pd.PollAny() }) {
					return fmt.Errorf("rank %d: drained after %d of %d posts", me, i-1, p-1)
				}
				dst := (me + i) % p
				part := alltoallPart(me, dst)
				pd.Post(dst, append(c.Alloc(len(part))[:0], part...))
			}
			for _, data, ok := pd.PollAny(); ok; _, data, ok = pd.PollAny() {
				c.Release(data)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}
