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
		parts[dst] = bytes.Repeat([]byte{byte(rank*31 + dst)}, (rank+dst*7)%97)
	}
	return parts
}

// TestIAlltoallvWaitMatchesBlocking is the differential test of the
// acceptance criteria: the blocking Alltoallv and IAlltoallv+Wait must
// produce byte-identical outputs and bit-identical deterministic counters
// (hence identical model-ms and bytes-str), on every PE count.
func TestIAlltoallvWaitMatchesBlocking(t *testing.T) {
	for _, p := range ps {
		run := func(split bool) ([][][]byte, [][stats.NumPhases]stats.PhaseCounters) {
			m := New(p)
			got := make([][][]byte, p)
			err := m.Run(func(c *Comm) error {
				c.SetPhase(stats.PhaseExchange)
				g := c.World()
				parts := alltoallParts(c.Rank(), p)
				if split {
					got[c.Rank()] = g.IAlltoallv(parts).Wait()
				} else {
					got[c.Rank()] = g.Alltoallv(parts)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return got, phaseCounters(m)
		}
		blockOut, blockStats := run(false)
		splitOut, splitStats := run(true)
		for rank := 0; rank < p; rank++ {
			for src := 0; src < p; src++ {
				if !bytes.Equal(blockOut[rank][src], splitOut[rank][src]) {
					t.Fatalf("p=%d rank=%d src=%d: payloads differ", p, rank, src)
				}
			}
			if blockStats[rank] != splitStats[rank] {
				t.Fatalf("p=%d rank=%d: counters differ:\nblocking: %+v\nsplit:    %+v",
					p, rank, blockStats[rank], splitStats[rank])
			}
		}
	}
}

// TestIAlltoallvPollAnyDrain drains with PollAny (arrival order) and checks
// that every payload arrives exactly once, intact, with the same
// deterministic counters as the blocking collective, and that releasing
// each payload exactly once is pool-safe (the -race CI job runs this).
func TestIAlltoallvPollAnyDrain(t *testing.T) {
	for _, p := range ps {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			c.SetPhase(stats.PhaseExchange)
			g := c.World()
			parts := alltoallParts(c.Rank(), p)
			pd := g.IAlltoallv(parts)
			c.SetPhase(stats.PhaseMerge) // drain in a later phase, like the sorters
			seen := make([]bool, p)
			for {
				src, data, ok := pd.PollAny()
				if !ok {
					break
				}
				if seen[src] {
					return fmt.Errorf("source %d drained twice", src)
				}
				seen[src] = true
				want := bytes.Repeat([]byte{byte(src*31 + c.Rank())}, (src+c.Rank()*7)%97)
				if !bytes.Equal(data, want) {
					return fmt.Errorf("payload from %d corrupted", src)
				}
				c.Release(data)
			}
			for src, s := range seen {
				if !s {
					return fmt.Errorf("source %d never drained", src)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// The exchange was posted in PhaseExchange and drained in
		// PhaseMerge; all its bytes must still be billed to the posting
		// phase, so the counters match a fully blocking exchange.
		blocking := New(p)
		err = blocking.Run(func(c *Comm) error {
			c.SetPhase(stats.PhaseExchange)
			out := c.World().Alltoallv(alltoallParts(c.Rank(), p))
			c.Release(out...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := phaseCounters(m), phaseCounters(blocking)
		for rank := range a {
			if a[rank] != b[rank] {
				t.Fatalf("p=%d rank=%d: split-phase drain moved counters between phases:\nsplit:    %+v\nblocking: %+v",
					p, rank, a[rank], b[rank])
			}
		}
	}
}

// TestPollRecvTargetedDrain drains members in reverse rank order with
// PollRecv and checks payload integrity.
func TestPollRecvTargetedDrain(t *testing.T) {
	const p = 5
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := c.World()
		pd := g.IAlltoallv(alltoallParts(c.Rank(), p))
		for idx := p - 1; idx >= 0; idx-- {
			data := pd.PollRecv(idx)
			want := bytes.Repeat([]byte{byte(idx*31 + c.Rank())}, (idx+c.Rank()*7)%97)
			if !bytes.Equal(data, want) {
				return fmt.Errorf("payload from %d corrupted", idx)
			}
			c.Release(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIBarrierMatchesBarrier checks that IBarrier+Wait synchronizes and
// produces the message counts of the dissemination barrier.
func TestIBarrierMatchesBarrier(t *testing.T) {
	for _, p := range ps {
		run := func(split bool) [][stats.NumPhases]stats.PhaseCounters {
			m := New(p)
			counter := make([]int32, p)
			err := m.Run(func(c *Comm) error {
				g := c.World()
				counter[c.Rank()] = 1
				if split {
					g.IBarrier().Wait()
				} else {
					g.Barrier()
				}
				for i := 0; i < p; i++ {
					if counter[i] != 1 {
						return fmt.Errorf("PE %d passed before PE %d arrived", c.Rank(), i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return phaseCounters(m)
		}
		a, b := run(false), run(true)
		for rank := range a {
			if a[rank] != b[rank] {
				t.Fatalf("p=%d rank=%d: barrier counters differ", p, rank)
			}
		}
	}
}

// TestIAllgathervMatchesAllgatherv checks results and counters of the
// split-phase allgather against the blocking one.
func TestIAllgathervMatchesAllgatherv(t *testing.T) {
	for _, p := range ps {
		run := func(split bool) ([][][]byte, [][stats.NumPhases]stats.PhaseCounters) {
			m := New(p)
			got := make([][][]byte, p)
			err := m.Run(func(c *Comm) error {
				c.SetPhase(stats.PhasePartition)
				g := c.World()
				mine := []byte(fmt.Sprintf("data-%d", c.Rank()*c.Rank()))
				if split {
					pd := g.IAllgatherv(mine)
					got[c.Rank()] = pd.Wait()
				} else {
					got[c.Rank()] = g.Allgatherv(mine)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return got, phaseCounters(m)
		}
		blockOut, blockStats := run(false)
		splitOut, splitStats := run(true)
		for rank := 0; rank < p; rank++ {
			for i := 0; i < p; i++ {
				want := fmt.Sprintf("data-%d", i*i)
				if string(blockOut[rank][i]) != want || string(splitOut[rank][i]) != want {
					t.Fatalf("p=%d rank=%d member %d: got %q / %q, want %q",
						p, rank, i, blockOut[rank][i], splitOut[rank][i], want)
				}
			}
			if blockStats[rank] != splitStats[rank] {
				t.Fatalf("p=%d rank=%d: allgather counters differ", p, rank)
			}
		}
	}
}

// TestWaitAfterPartialDrainLeavesHandedOutNil pins the ownership contract:
// payloads already handed out by PollRecv/PollAny do not reappear in Wait's
// result, so no buffer can be double-released.
func TestWaitAfterPartialDrainLeavesHandedOutNil(t *testing.T) {
	const p = 4
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := c.World()
		pd := g.IAlltoallv(alltoallParts(c.Rank(), p))
		first, firstData, ok := pd.PollAny()
		if !ok {
			return fmt.Errorf("PollAny returned no payload")
		}
		c.Release(firstData)
		rest := pd.Wait()
		if rest[first] != nil {
			return fmt.Errorf("member %d handed out by PollAny reappeared in Wait", first)
		}
		for idx, data := range rest {
			if idx == first {
				continue
			}
			if data == nil {
				return fmt.Errorf("member %d missing from Wait result", idx)
			}
			c.Release(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIAllgathervCallerKeepsOwnership pins the buffer-ownership contract
// of the split-phase allgather: the caller may mutate (or reuse) its
// contribution buffer between posting and Wait — the overlap-compute
// window the API exists for — and every member must still receive the
// bytes as they were at post time, on leaves and inner tree nodes alike.
func TestIAllgathervCallerKeepsOwnership(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		m := New(p)
		err := m.Run(func(c *Comm) error {
			g := c.World()
			buf := []byte(fmt.Sprintf("orig-%d", c.Rank()))
			pd := g.IAllgatherv(buf)
			copy(buf, "MUTATED!!") // caller reuses its buffer mid-flight
			parts := pd.Wait()
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

// TestWaitAfterFullDrainReturnsAllNil pins the edge of the mixed-drain
// contract: when every member was already drained incrementally, Wait is
// still legal and returns the all-nil slice instead of panicking.
func TestWaitAfterFullDrainReturnsAllNil(t *testing.T) {
	const p = 3
	m := New(p)
	err := m.Run(func(c *Comm) error {
		g := c.World()
		pd := g.IAlltoallv(alltoallParts(c.Rank(), p))
		for i := 0; i < p; i++ {
			c.Release(pd.PollRecv(i))
		}
		for idx, data := range pd.Wait() {
			if data != nil {
				return fmt.Errorf("member %d reappeared after full incremental drain", idx)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapCreditedForHiddenComm is the deterministic, scheduler-proof
// anchor of the overlap model (the acceptance assertion "overlap-ms > 0"):
// one PE delays its post by a fixed 20 ms, the others spend ~1 ms of
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
		g := c.World()
		if c.Rank() == p-1 {
			time.Sleep(stragglerDelay)
		}
		pd := g.IAlltoallv(alltoallParts(c.Rank(), p))
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

// TestSplitPhaseBarrierEagerSignal checks that the eagerly posted round-0
// signal of IBarrier lets a peer make progress before Wait is called: PE 1
// can observe PE 0's barrier entry while PE 0 is still computing.
func TestSplitPhaseBarrierEagerSignal(t *testing.T) {
	m := New(2)
	err := m.Run(func(c *Comm) error {
		g := c.World()
		pd := g.IBarrier()
		// Both PEs have posted their round-0 signal; Wait can now complete
		// without further sends on either side for n=2.
		pd.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStagedPostTakesOwnership pins the staged exchange against the copying
// IAlltoallv: parts allocated with Comm.Alloc and handed over by Post, in
// any order, arrive byte-identical and bill bit-identical counters (to the
// phase captured at post time), and the self part comes back by reference —
// the very buffer that was posted, not a copy of it.
func TestStagedPostTakesOwnership(t *testing.T) {
	for _, p := range ps {
		run := func(staged bool) ([][][]byte, [][stats.NumPhases]stats.PhaseCounters) {
			m := New(p)
			got := make([][][]byte, p)
			err := m.Run(func(c *Comm) error {
				c.SetPhase(stats.PhaseExchange)
				g := c.World()
				parts := alltoallParts(c.Rank(), p)
				if !staged {
					got[c.Rank()] = g.IAlltoallv(parts).Wait()
					return nil
				}
				pd := g.IAlltoallvStaged()
				var self []byte
				for i := p - 1; i >= 0; i-- { // reverse order: posting order is free
					dst := (i + c.Rank()) % p
					buf := append(c.Alloc(len(parts[dst]))[:0], parts[dst]...)
					if dst == c.Rank() {
						self = buf
					}
					pd.Post(dst, buf)
				}
				c.SetPhase(stats.PhaseMerge) // drained in a later phase, billed to the posting one
				out := pd.Wait()
				if len(self) > 0 && &out[c.Rank()][0] != &self[0] {
					return fmt.Errorf("rank %d: self part was copied, not kept by reference", c.Rank())
				}
				got[c.Rank()] = out
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return got, phaseCounters(m)
		}
		copyOut, copyStats := run(false)
		giveOut, giveStats := run(true)
		for rank := 0; rank < p; rank++ {
			for src := 0; src < p; src++ {
				if !bytes.Equal(copyOut[rank][src], giveOut[rank][src]) {
					t.Fatalf("p=%d rank=%d src=%d: payloads differ", p, rank, src)
				}
			}
			if copyStats[rank] != giveStats[rank] {
				t.Fatalf("p=%d rank=%d: counters differ:\ncopying: %+v\nstaged:  %+v",
					p, rank, copyStats[rank], giveStats[rank])
			}
		}
	}
}
