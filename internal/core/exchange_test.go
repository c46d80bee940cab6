package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dss/internal/comm"
	"dss/internal/stats"
	"dss/internal/transport"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
)

// TestExchangeSeamsIdentical pins the two disciplines of the Step-3 seam
// against each other for every algorithm family: the split-phase seam
// (buckets encoded into transport buffers and given away) and the blocking
// reference (one arena, copying Alltoallv) must produce byte-identical
// fragments, LCP arrays and origins, and bill every deterministic counter
// identically on every PE.
func TestExchangeSeamsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	global := append(genRandom(rng, 3000, 40, 4), genSmallD(1000, 60)...)
	locals := scatter(global, 4)
	families := map[string]func(blocking bool) func(c *comm.Comm, ss [][]byte) Result{
		"MS": func(blocking bool) func(c *comm.Comm, ss [][]byte) Result {
			return func(c *comm.Comm, ss [][]byte) Result {
				return MergeSort(c, ss, MSOptions{LCP: true, Seed: 5, SeamOptions: SeamOptions{BlockingExchange: blocking}})
			}
		},
		"PDMS": func(blocking bool) func(c *comm.Comm, ss [][]byte) Result {
			return func(c *comm.Comm, ss [][]byte) Result {
				return PDMS(c, ss, PDMSOptions{Golomb: true, Seed: 5, SeamOptions: SeamOptions{BlockingExchange: blocking}})
			}
		},
		"FKMerge": func(blocking bool) func(c *comm.Comm, ss [][]byte) Result {
			return func(c *comm.Comm, ss [][]byte) Result {
				return FKMerge(c, ss, FKOptions{SeamOptions: SeamOptions{BlockingExchange: blocking}})
			}
		},
		"HQuick": func(blocking bool) func(c *comm.Comm, ss [][]byte) Result {
			return func(c *comm.Comm, ss [][]byte) Result {
				return HQuick(c, ss, HQOptions{Seed: 5, SeamOptions: SeamOptions{BlockingExchange: blocking}})
			}
		},
	}
	for name, algo := range families {
		t.Run(name, func(t *testing.T) {
			split, ms := runDistributed(t, locals, algo(false))
			block, mb := runDistributed(t, locals, algo(true))
			for pe := range split {
				s, b := split[pe], block[pe]
				if len(s.Strings) != len(b.Strings) {
					t.Fatalf("PE %d: %d strings split, %d blocking", pe, len(s.Strings), len(b.Strings))
				}
				for i := range s.Strings {
					if !bytes.Equal(s.Strings[i], b.Strings[i]) {
						t.Fatalf("PE %d: string %d differs between the seams", pe, i)
					}
				}
				if fmt.Sprint(s.LCPs) != fmt.Sprint(b.LCPs) {
					t.Fatalf("PE %d: LCP arrays differ between the seams", pe)
				}
				if fmt.Sprint(s.Sats) != fmt.Sprint(b.Sats) {
					t.Fatalf("PE %d: origins differ between the seams", pe)
				}
				if sp, bp := ms.Report().PEs[pe].Phases, mb.Report().PEs[pe].Phases; sp != bp {
					t.Fatalf("PE %d: deterministic counters differ between the seams:\nsplit:    %+v\nblocking: %+v", pe, sp, bp)
				}
			}
		})
	}
}

// bucketByte is the content of the synthetic buckets below: a function of
// every coordinate, so a misrouted or recycled buffer never checks out.
func bucketByte(src, dst, i int) byte { return byte(src*131 + dst*31 + i + i>>8) }

// runExchange drives one split-phase exchangeEncoded over the machine with
// p×(p−1) synthetic buckets of the given size — each PE's own bucket stays
// home — and verifies every received byte. It returns the encoded bytes
// leaving all PEs, which are also the bytes they receive.
func runExchange(tb testing.TB, m *comm.Machine, bucket int) (out int64) {
	p := m.P()
	sizes := make([]int, p)
	for i := range sizes {
		sizes[i] = bucket
	}
	var bad atomic.Int64
	err := m.Run(func(c *comm.Comm) error {
		me := c.Rank()
		enc := func(dst int, buf []byte) []byte {
			buf = buf[:bucket]
			for i := range buf {
				buf[i] = bucketByte(me, dst, i)
			}
			return buf
		}
		recv := exchangeEncoded(c, comm.NewGroup(c, comm.WorldRanks(c.P()), 0), sizes, me, enc, false, stats.PhaseMerge)
		decodeOnPool(c, recv, func(src int, msg []byte) {
			if len(msg) != bucket {
				bad.Add(1)
				return
			}
			for i, b := range msg {
				if b != bucketByte(src, me, i) {
					bad.Add(1)
					return
				}
			}
		})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if n := bad.Load(); n != 0 {
		tb.Fatalf("%d received buckets corrupted", n)
	}
	return int64(p * (p - 1) * bucket)
}

// TestExchangeAllocatesEachByteOnce is the deterministic guard of the
// ownership-transferring send path: around one split-phase exchange on the
// local transport, the process may allocate at most 1.1 × the encoded bytes
// out. The seam encodes each bucket into the buffer that is then delivered
// itself, so the real figure is the encoded bytes alone; an encode arena
// plus a copying Send — the seam this replaced — needs 2 ×. No clock is
// read.
func TestExchangeAllocatesEachByteOnce(t *testing.T) {
	const bucket = 1<<20 + 1<<19 + 77 // above the pool's size classes: allocated exactly
	m := comm.New(4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := runExchange(t, m, bucket)
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := out * 11 / 10; got > limit {
		t.Fatalf("exchange of %d encoded bytes allocated %d bytes, limit %d", out, got, limit)
	}
	t.Logf("allocated %d bytes for %d encoded bytes", got, out)
}

var sink int64

// BenchmarkExchangeEncoded is the rung of the Step-3 seam: p = 4 PEs, one
// 8 MiB bucket per pair of distinct PEs (the own bucket stays home), encoded
// (a byte fill), exchanged split-phase and verified on arrival, over the
// in-process mailboxes and over loopback sockets. Bytes are the encoded
// volume leaving all PEs per exchange.
func BenchmarkExchangeEncoded(b *testing.B) {
	const p, bucket = 4, 8 << 20
	fabrics := []struct {
		name string
		make func() (transport.Fabric, error)
	}{
		{"local", func() (transport.Fabric, error) { return local.New(p), nil }},
		{"tcp", func() (transport.Fabric, error) { return tcp.NewLoopback(p) }},
	}
	for _, fb := range fabrics {
		b.Run(fb.name, func(b *testing.B) {
			f, err := fb.make()
			if err != nil {
				b.Fatal(err)
			}
			m := comm.NewOver(f)
			defer m.Close()
			b.SetBytes(p * (p - 1) * bucket)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += runExchange(b, m, bucket)
			}
		})
	}
}
