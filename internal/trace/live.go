// Live introspection state behind the -debug-addr endpoint: a global set
// of gauges the hot paths update only when the endpoint is actually
// serving (one atomic load when it is not), plus a registry of live
// recorders for the on-demand trace snapshot.
package trace

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// liveEnabled flips to true once and stays true: the debug endpoint lives
// for the rest of the process.
var liveEnabled atomic.Bool

// EnableLive turns on the live gauges and the recorder registry. Called
// by the debug endpoint at startup; there is no way back — the cost while
// enabled is a handful of atomic adds per accounting call.
func EnableLive() { liveEnabled.Store(true) }

// LiveOn reports whether the live gauges are being served. Hot paths
// check this before touching Live.
func LiveOn() bool { return liveEnabled.Load() }

// Gauges is the expvar-published live view of a running sort. All fields
// are cumulative byte counters except LiveBytes (current metered arena
// bytes) and the per-rank phase map.
type Gauges struct {
	RawSent      atomic.Int64 // model-channel bytes entering the transport
	RawRecv      atomic.Int64
	WireSent     atomic.Int64 // post-codec frame bytes on the wire
	WireRecv     atomic.Int64
	SpillWritten atomic.Int64 // spill page bytes flushed
	SpillRead    atomic.Int64 // spill page bytes paged back in
	LiveBytes    atomic.Int64 // current metered arena bytes (all pools)

	mu     sync.Mutex
	phases map[int]string // rank → current phase name
}

// Live is the process-wide gauge set. Updates are gated on LiveOn.
var Live Gauges

// SetPhase records the current phase of one rank.
func (g *Gauges) SetPhase(rank int, phase string) {
	g.mu.Lock()
	if g.phases == nil {
		g.phases = make(map[int]string)
	}
	g.phases[rank] = phase
	g.mu.Unlock()
}

// Map snapshots the gauges as an expvar-friendly map.
func (g *Gauges) Map() map[string]any {
	m := map[string]any{
		"raw_sent_bytes":      g.RawSent.Load(),
		"raw_recv_bytes":      g.RawRecv.Load(),
		"wire_sent_bytes":     g.WireSent.Load(),
		"wire_recv_bytes":     g.WireRecv.Load(),
		"spill_written_bytes": g.SpillWritten.Load(),
		"spill_read_bytes":    g.SpillRead.Load(),
		"live_arena_bytes":    g.LiveBytes.Load(),
	}
	g.mu.Lock()
	phases := make(map[string]string, len(g.phases))
	for rank, ph := range g.phases {
		phases[strconv.Itoa(rank)] = ph
	}
	g.mu.Unlock()
	m["phase"] = phases
	return m
}

// maxLiveRecorders bounds the snapshot registry: a long-lived process
// running many sorts keeps only the most recent recorders alive through
// the registry (the sorts themselves drop theirs when done).
const maxLiveRecorders = 64

var (
	regMu    sync.Mutex
	registry []*Recorder
)

// register adds a recorder to the live-snapshot registry (called from New
// when the endpoint is enabled).
func register(r *Recorder) {
	regMu.Lock()
	registry = append(registry, r)
	if len(registry) > maxLiveRecorders {
		registry = append(registry[:0], registry[len(registry)-maxLiveRecorders:]...)
	}
	regMu.Unlock()
}

// Snapshots returns a snapshot of every registered live recorder, sorted
// by rank — the payload of the endpoint's on-demand trace download.
func Snapshots() []*Buffer {
	regMu.Lock()
	recs := append([]*Recorder(nil), registry...)
	regMu.Unlock()
	bufs := make([]*Buffer, 0, len(recs))
	for _, r := range recs {
		bufs = append(bufs, r.Snapshot())
	}
	sort.SliceStable(bufs, func(i, j int) bool { return bufs[i].Rank < bufs[j].Rank })
	return bufs
}
