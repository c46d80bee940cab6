package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dss/internal/comm"
	"dss/internal/par"
	"dss/internal/stats"
	"dss/internal/transport"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
)

// bucketByte is the content of the synthetic buckets below: a function of
// every coordinate, so a misrouted or recycled buffer never checks out.
func bucketByte(src, dst, i int) byte { return byte(src*131 + dst*31 + i + i>>8) }

// exchange is exchangeEncoded's signature, which its reference shares.
type exchange func(c *comm.Comm, g *comm.Group, sizes []int, own int,
	enc func(dst int, buf []byte) []byte, next stats.Phase) func() (int, []byte, bool)

// bulkExchange is the bulk-synchronous reference of exchangeEncoded: every
// bucket but own's is encoded into one arena, one copying Alltoallv sends
// them all, the phase switches to next, and recv walks the received
// buckets in rank order.
func bulkExchange(c *comm.Comm, g *comm.Group, sizes []int, own int,
	enc func(dst int, buf []byte) []byte, next stats.Phase,
) func() (int, []byte, bool) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	parts, arena := make([][]byte, len(sizes)), make([]byte, 0, total)
	for dst, n := range sizes {
		if at := len(arena); dst != own {
			parts[dst] = enc(dst, arena[at:at:at+n])
			arena = arena[:at+n]
		}
	}
	recvd := g.Alltoallv(parts)
	c.SetPhase(next)
	src := -1
	return func() (int, []byte, bool) {
		if src++; src == own {
			src++
		}
		if src >= len(recvd) {
			return -1, nil, false
		}
		return src, recvd[src], true
	}
}

// uniform sizes every bucket at n bytes.
func uniform(n int) func(src, dst int) int { return func(int, int) int { return n } }

// runExchange drives one Step-3 exchange x over the machine: PE src's
// bucket for dst is size(src, dst) bytes of bucketByte(src, dst, ·) — the
// own bucket stays home — posted in the exchange phase and landed in the
// merge phase through decodeOnPool. Like the Step-4 landing on a corrupt
// run, a PE panics when a bucket that lands is not its pattern or when
// some peer's bucket does not land exactly once. It returns the bytes
// leaving all PEs, which are also the bytes they receive.
func runExchange(m *comm.Machine, size func(src, dst int) int, x exchange) (out int64, err error) {
	p := m.P()
	err = m.Run(func(c *comm.Comm) error {
		me := c.Rank()
		sizes := make([]int, p)
		for dst := range sizes {
			if dst != me {
				sizes[dst] = size(me, dst)
			}
		}
		enc := func(dst int, buf []byte) []byte {
			buf = buf[:sizes[dst]]
			for i := range buf {
				buf[i] = bucketByte(me, dst, i)
			}
			return buf
		}
		c.SetPhase(stats.PhaseExchange)
		recv := x(c, comm.NewGroup(c, comm.WorldRanks(p), 0), sizes, me, enc, stats.PhaseMerge)
		landed := make([]atomic.Int32, p)
		decodeOnPool(c, recv, func(src int, msg []byte) {
			landed[src].Add(1)
			if want := size(src, me); len(msg) != want {
				panic(fmt.Sprintf("bucket %d→%d: %d bytes, want %d", src, me, len(msg), want))
			}
			for i, b := range msg {
				if b != bucketByte(src, me, i) {
					panic(fmt.Sprintf("bucket %d→%d: byte %d differs", src, me, i))
				}
			}
		})
		for src := range landed {
			if n := landed[src].Load(); src != me && n != 1 {
				panic(fmt.Sprintf("bucket %d→%d landed %d times", src, me, n))
			}
		}
		return nil
	})
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if dst != src {
				out += int64(size(src, dst))
			}
		}
	}
	return out, err
}

// TestExchangeMatchesReference is the differential of the Step-3 exchange
// against its bulk-synchronous reference, for p = 2…5 PEs at pool widths
// 1, 2 and 4, with buckets of assorted sizes, empty ones among them (every
// bucket for PE 0 is empty). Both must deliver every (src, dst) bucket
// byte for byte — runExchange checks each against its pattern — and bill
// every per-phase counter identically on every PE, so the exchange phase,
// where the buckets are posted, pays for all of them.
func TestExchangeMatchesReference(t *testing.T) {
	size := func(src, dst int) int { return (src + 1) * dst % 3 * 1001 }
	for p := 2; p <= 5; p++ {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("p=%d/cores=%d", p, w), func(t *testing.T) {
				var reports [2]*stats.Report
				for i, x := range []exchange{exchangeEncoded, bulkExchange} {
					m := comm.New(p)
					m.SetPool(par.New(w))
					if _, err := runExchange(m, size, x); err != nil {
						t.Fatal(err)
					}
					reports[i] = m.Report()
				}
				for pe := 0; pe < p; pe++ {
					if got, want := reports[0].PEs[pe].Phases, reports[1].PEs[pe].Phases; got != want {
						t.Fatalf("PE %d: per-phase counters differ from the reference:\nexchange:  %+v\nreference: %+v",
							pe, got, want)
					}
				}
			})
		}
	}
}

// TestFailedEncoderIsReported pins that a bucket whose encoder failed is
// never posted: PE 2's encoder for PE 0 fills one byte short, and the run
// must fail with PE 2's size mismatch, not with PE 0's landing of the
// empty bucket a post would hand it. PE 2's other encoders are slowed
// down, so that such a landing would fail first.
func TestFailedEncoderIsReported(t *testing.T) {
	const p, bucket = 4, 4096
	faulty := func(c *comm.Comm, g *comm.Group, sizes []int, own int,
		enc func(dst int, buf []byte) []byte, next stats.Phase,
	) func() (int, []byte, bool) {
		if c.Rank() == 2 {
			healthy := enc
			enc = func(dst int, buf []byte) []byte {
				if dst == 0 {
					return healthy(dst, buf)[:bucket-1]
				}
				time.Sleep(5 * time.Millisecond)
				return healthy(dst, buf)
			}
		}
		return exchangeEncoded(c, g, sizes, own, enc, next)
	}
	for _, w := range []int{1, 2, 4} {
		for run := 0; run < 30; run++ {
			m := comm.New(p)
			m.SetPool(par.New(w))
			_, err := runExchange(m, uniform(bucket), faulty)
			if err == nil || !strings.Contains(err.Error(), "PE 2 panicked") ||
				!strings.Contains(err.Error(), "size mismatch") {
				msg, _, _ := strings.Cut(fmt.Sprint(err), "\n")
				t.Fatalf("cores=%d, run %d: got %q, want PE 2's size mismatch", w, run, msg)
			}
		}
	}
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
	out, err := runExchange(m, uniform(bucket), exchangeEncoded)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
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
				out, err := runExchange(m, uniform(bucket), exchangeEncoded)
				if err != nil {
					b.Fatal(err)
				}
				sink += out
			}
		})
	}
}
