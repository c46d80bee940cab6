package chaos_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/conformance"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
)

// TestConformanceUnderChaos runs the full transport conformance suite over
// both built-in backends decorated with every chaos severity level: the
// substrate contract — non-overtaking per-(pair, tag) streams, tag
// selectivity, RecvAny earliest-arrival semantics with plausible stamps —
// must hold while frames are delayed and reordered across streams.
func TestConformanceUnderChaos(t *testing.T) {
	backends := []struct {
		name string
		make func(tb testing.TB, p int) transport.Fabric
	}{
		{"local", func(tb testing.TB, p int) transport.Fabric { return local.New(p) }},
		{"tcp", func(tb testing.TB, p int) transport.Fabric {
			f, err := tcp.NewLoopback(p)
			if err != nil {
				tb.Fatalf("loopback fabric: %v", err)
			}
			return f
		}},
	}
	for _, level := range chaos.Names() {
		cfg, err := chaos.Parse(level)
		if err != nil {
			t.Fatalf("Parse(%q): %v", level, err)
		}
		cfg.Seed = 0xC5A0 + uint64(len(level))
		for _, b := range backends {
			t.Run(fmt.Sprintf("%s-%s", b.name, level), func(t *testing.T) {
				mk := b.make
				conformance.Run(t, func(tb testing.TB, p int) transport.Fabric {
					return chaos.WrapFabric(mk(tb, p), cfg)
				})
			})
		}
	}
}

// giveLog sits between the chaos decorator and the wrapped endpoint and
// records the frames the executor has handed on, as (tag, index) pairs.
type giveLog struct {
	transport.Transport
	mu    sync.Mutex
	given []string
}

func (g *giveLog) Give(dst, tag int, buf []byte) {
	g.mu.Lock()
	g.given = append(g.given, fmt.Sprintf("%d/%d", tag, buf[0]))
	g.mu.Unlock()
	g.Transport.Give(dst, tag, buf)
}

func (g *giveLog) snapshot() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.given...)
}

// settled returns the log once it has stopped growing for 50 ms, or after
// 5 s: the executor passes every due frame on as soon as it runs, however
// late a loaded machine schedules it.
func (g *giveLog) settled() []string {
	const quiet = 50 * time.Millisecond
	deadline := time.Now().Add(5 * time.Second)
	last, since := g.snapshot(), time.Now()
	for time.Since(since) < quiet && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if cur := g.snapshot(); len(cur) != len(last) {
			last, since = cur, time.Now()
		}
	}
	return last
}

// TestScheduleDeterminism pins the decorator's core promise: the fault
// schedule is a pure function of (seed, rank, send sequence). With delays
// of an hour, the frames that reach the wrapped transport before the
// queue is drained are exactly those the schedule did not hold back (and
// did not queue behind a held frame of their own stream), so two
// endpoints wrapped with the same seed over identical send sequences must
// pass on the same frames, and another seed a different set. The drain
// then delivers the rest, each stream still in order.
func TestScheduleDeterminism(t *testing.T) {
	const frames, tags = 96, 4
	run := func(seed uint64) (passed, all []string) {
		cfg, err := chaos.Parse("reorder")
		if err != nil {
			t.Fatalf("Parse(reorder): %v", err)
		}
		cfg.Seed = seed
		cfg.MaxDelay = time.Hour
		f := local.New(2)
		log := &giveLog{Transport: f.Endpoint(0)}
		a := chaos.Wrap(log, cfg)
		for i := 0; i < frames; i++ {
			a.Send(1, i%tags, []byte{byte(i)})
		}
		passed = log.settled()
		a.Drain()
		all = log.snapshot()
		b := f.Endpoint(1)
		for i := 0; i < frames; i++ {
			if got := b.Recv(0, i%tags); len(got) != 1 || got[0] != byte(i) {
				t.Fatalf("seed %d: frame %d of stream %d arrived as % x", seed, i, i%tags, got)
			}
		}
		return passed, all
	}

	p1, all := run(42)
	p2, _ := run(42)
	if len(p1) == 0 || len(p1) == frames {
		t.Fatalf("the schedule held back %d of %d frames, want some but not all", frames-len(p1), frames)
	}
	if len(all) != frames {
		t.Fatalf("%d of %d frames reached the wrapped transport after the drain", len(all), frames)
	}
	if fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Fatalf("same seed, different frames passed on:\n%v\n%v", p1, p2)
	}
	if p3, _ := run(43); fmt.Sprint(p3) == fmt.Sprint(p1) {
		t.Fatalf("seeds 42 and 43 passed on identical frames: %v", p1)
	}
}

// TestParseRejectsUnknownLevel pins the flag-parsing contract.
func TestParseRejectsUnknownLevel(t *testing.T) {
	if _, err := chaos.Parse("tsunami"); err == nil {
		t.Fatalf("Parse(tsunami) accepted an unknown severity level")
	}
	for _, name := range chaos.Names() {
		if _, err := chaos.Parse(name); err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
	}
}
