package chaos_test

import (
	"fmt"
	"testing"

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
// must hold while frames are delayed, reordered across streams, and (over
// tcp) connections are killed and resumed mid-traffic.
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

// killLog sits between the chaos decorator and the tcp endpoint and records
// what the schedule decided: before which frame each connection kill was
// armed, against which peer, and after how many bytes. Both methods run on
// the decorator's executor goroutine; the test reads the log after Drain.
type killLog struct {
	transport.Transport
	gives int
	kills []kill
}

type kill struct{ frame, peer, afterBytes int }

func (k *killLog) Give(dst, tag int, buf []byte) {
	k.gives++
	k.Transport.Give(dst, tag, buf)
}

func (k *killLog) DropConn(peer, afterBytes int) bool {
	k.kills = append(k.kills, kill{k.gives, peer, afterBytes})
	return k.Transport.(transport.ConnDropper).DropConn(peer, afterBytes)
}

// TestScheduleDeterminism pins the decorator's core promise: the fault
// schedule is a pure function of (seed, rank, send sequence). Two
// endpoints wrapped with the same seed over identical send sequences must
// arm the same kills — same frame, same peer, same cut offset — and every
// kill must cost exactly one reconnect. How many frames each reconnect
// replays is NOT part of the schedule (it depends on which acks had landed
// when the connection was cut) and is not asserted. The receiver confirms
// every frame before the next is sent, so each armed kill has fired and
// been repaired before the schedule can arm another one on top of it.
func TestScheduleDeterminism(t *testing.T) {
	const frames = 120
	run := func(seed uint64) (kills []kill, reconnects int64) {
		f, err := tcp.NewLoopback(2)
		if err != nil {
			t.Fatalf("loopback fabric: %v", err)
		}
		defer f.Close()
		cfg, err := chaos.Parse("drop")
		if err != nil {
			t.Fatalf("Parse(drop): %v", err)
		}
		cfg.Seed = seed
		cfg.MaxDelay = 0
		cfg.DelayProb = 0 // timing out of the picture: drops only
		log := &killLog{Transport: f.Endpoint(0)}
		a, b := chaos.Wrap(log, cfg), f.Endpoint(1)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				buf := b.Recv(0, 3)
				if len(buf) != 32 || buf[0] != byte(i) {
					done <- fmt.Errorf("frame %d corrupted: % x", i, buf[:2])
					return
				}
				b.Release(buf)
				b.Send(0, 4, nil)
			}
			done <- nil
		}()
		payload := make([]byte, 32)
		for i := 0; i < frames; i++ {
			payload[0] = byte(i)
			a.Send(1, 3, payload)
			a.Release(a.Recv(1, 4))
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		a.Drain()
		reconnects, _, _ = log.Transport.(interface {
			NetStats() (int64, int64, int64)
		}).NetStats()
		if err := f.Close(); err != nil {
			t.Fatalf("Close after recovered drops: %v", err)
		}
		return log.kills, reconnects
	}

	k1, r1 := run(42)
	k2, r2 := run(42)
	if len(k1) != 3 {
		t.Fatalf("drop schedule armed %d kills over %d frames, want MaxDrops = 3: %v", len(k1), frames, k1)
	}
	if fmt.Sprint(k1) != fmt.Sprint(k2) {
		t.Fatalf("same seed, different kill points: %v vs %v", k1, k2)
	}
	if r1 != int64(len(k1)) || r2 != int64(len(k2)) {
		t.Fatalf("%d kills armed, but %d and %d reconnects", len(k1), r1, r2)
	}
	if k3, _ := run(43); fmt.Sprint(k3) == fmt.Sprint(k1) {
		t.Fatalf("seeds 42 and 43 armed identical kill points: %v", k1)
	}
}

// TestDropsRequireCapability pins the graceful degradation: over the local
// backend (no transport.ConnDropper) the drop level must inject nothing
// and report zero reconnects, while still delivering everything.
func TestDropsRequireCapability(t *testing.T) {
	cfg, err := chaos.Parse("drop")
	if err != nil {
		t.Fatalf("Parse(drop): %v", err)
	}
	cfg.Seed = 7
	f := chaos.WrapFabric(local.New(2), cfg)
	a, b := f.Endpoint(0), f.Endpoint(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			buf := b.Recv(0, 1)
			if len(buf) != 1 || buf[0] != byte(i) {
				panic(fmt.Sprintf("frame %d: % x", i, buf))
			}
			b.Release(buf)
		}
	}()
	for i := 0; i < 100; i++ {
		a.Send(1, 1, []byte{byte(i)})
	}
	<-done
	rc, rf, rb := a.(interface {
		NetStats() (int64, int64, int64)
	}).NetStats()
	if rc != 0 || rf != 0 || rb != 0 {
		t.Fatalf("local backend reported net stats (%d, %d, %d), want zeros", rc, rf, rb)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
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
