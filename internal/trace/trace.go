// Package trace is the per-PE timeline recorder behind Config.Trace and
// the -debug-addr live endpoint: a fixed-size ring of binary event
// records (span begin/end, instant events, counter samples) stamped with
// nanosecond wall-clock timestamps, cheap enough to leave compiled into
// every hot path.
//
// Cost model. Every Recorder method is nil-safe: a disabled run passes a
// nil *Recorder around and each hook point costs one pointer test and a
// branch — no interface dispatch, no allocation, no time syscall. An
// enabled recorder takes a mutex per event (spill write-behind helpers
// and pool workers record concurrently with the PE goroutine) and writes
// one 48-byte record; names are interned once per distinct string.
//
// The ring holds the most recent Capacity events; older events are
// dropped, counted in Buffer.Dropped. Span consistency across the wrap
// seam (an End whose Begin was overwritten, a Begin whose End is gone) is
// restored at export time by WriteChromeTrace, which drops orphaned Ends
// and synthesizes Ends for unclosed Begins — so a wrapped ring still
// loads in Perfetto.
//
// Tracks. Events carry a track id that becomes a Chrome thread track:
// TrackControl is the PE goroutine itself (phase spans, collective posts,
// frame instants), TrackSpill the write-behind spill traffic, and
// TrackWorker0+w the w-th participating worker of a `par` fork point.
package trace

import (
	"sync"
	"time"
)

// Kind discriminates the event records in the ring.
type Kind uint8

const (
	// KindBegin opens a span on a track.
	KindBegin Kind = iota
	// KindEnd closes the most recent open span on the same track.
	KindEnd
	// KindInstant is a point event (Arg/Arg2 carry bytes and peer rank
	// where that makes sense).
	KindInstant
	// KindCounter is a sampled counter value (Arg is the sample).
	KindCounter
)

// Track ids. Anything >= TrackWorker0 is a pool-worker track.
const (
	// TrackControl is the PE's own goroutine: phase spans, collective
	// post/arrival instants, transport frame events.
	TrackControl int32 = 0
	// TrackSpill carries the write-behind spill instants and counter
	// samples (page flushes run on helper goroutines, so they get their
	// own track rather than interleaving with worker spans).
	TrackSpill int32 = 1
	// TrackWorker0 is pool worker 0 (the forking goroutine); worker w
	// records on TrackWorker0 + w.
	TrackWorker0 int32 = 2
)

// DefaultCapacity is the ring size used when the caller passes 0: at
// 48 bytes per event this is ~1.5 MiB per PE, enough for every event of
// the benchmark-scale runs and a bounded tail of the biggest ones.
const DefaultCapacity = 32768

// Event is one fixed-size ring record. TS is a time.Now().UnixNano()
// stamp of the recording process; cross-process alignment happens at
// export time via Buffer.OffsetNS.
type Event struct {
	TS    int64 // UnixNano in the recorder's clock domain
	Arg   int64 // bytes / counter value / overlap-ns — per event name
	Arg2  int64 // peer rank for send/recv instants, else 0
	Name  int32 // index into the recorder's interned name table
	Track int32
	Kind  Kind
}

// Recorder collects the timeline of one PE. The zero value is not usable;
// call New. A nil *Recorder is the disabled state: every method returns
// immediately.
type Recorder struct {
	mu      sync.Mutex
	rank    int
	names   []string
	nameIx  map[string]int32
	ring    []Event
	next    uint64 // total events ever recorded; ring slot is next % cap
	dropped uint64
}

// Buffer is a self-contained snapshot of one recorder: the interned name
// table plus the surviving events, oldest first. OffsetNS is the additive
// correction that maps this buffer's clock domain onto the aggregating
// rank's (0 for same-process buffers; estimated at gather time for
// multi-process runs).
type Buffer struct {
	Rank     int
	OffsetNS int64
	Dropped  uint64
	Names    []string
	Events   []Event
}

// New creates a recorder for the given PE rank. capacity <= 0 selects
// DefaultCapacity. When the live debug endpoint is enabled the recorder
// registers itself for on-demand snapshots (see Snapshots).
func New(rank, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		rank:   rank,
		nameIx: make(map[string]int32),
		ring:   make([]Event, 0, capacity),
	}
	if LiveOn() {
		register(r)
	}
	return r
}

// intern returns the index of name in the table, adding it on first use.
// Callers hold r.mu.
func (r *Recorder) intern(name string) int32 {
	if ix, ok := r.nameIx[name]; ok {
		return ix
	}
	ix := int32(len(r.names))
	r.names = append(r.names, name)
	r.nameIx[name] = ix
	return ix
}

// record appends one event, overwriting the oldest once the ring is full.
// Callers hold r.mu.
func (r *Recorder) record(ev Event) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next%uint64(cap(r.ring))] = ev
		r.dropped++
	}
	r.next++
}

// Begin opens a span named name on the given track, stamped now.
func (r *Recorder) Begin(track int32, name string) {
	if r == nil {
		return
	}
	ts := time.Now().UnixNano()
	r.mu.Lock()
	r.record(Event{TS: ts, Name: r.intern(name), Track: track, Kind: KindBegin})
	r.mu.Unlock()
}

// End closes the most recent open span on the track, stamped now.
func (r *Recorder) End(track int32, name string) {
	if r == nil {
		return
	}
	ts := time.Now().UnixNano()
	r.mu.Lock()
	r.record(Event{TS: ts, Name: r.intern(name), Track: track, Kind: KindEnd})
	r.mu.Unlock()
}

// Span records a complete span with explicit begin/end stamps — the shape
// `par` fork points use: each worker's busy interval is known only once
// it finishes, so both records land at once.
func (r *Recorder) Span(track int32, name string, startNS, endNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ix := r.intern(name)
	r.record(Event{TS: startNS, Name: ix, Track: track, Kind: KindBegin})
	r.record(Event{TS: endNS, Name: ix, Track: track, Kind: KindEnd})
	r.mu.Unlock()
}

// Instant records a point event. arg and arg2 are event-specific (frame
// instants carry bytes and the peer rank).
func (r *Recorder) Instant(track int32, name string, arg, arg2 int64) {
	if r == nil {
		return
	}
	ts := time.Now().UnixNano()
	r.mu.Lock()
	r.record(Event{TS: ts, Arg: arg, Arg2: arg2, Name: r.intern(name), Track: track, Kind: KindInstant})
	r.mu.Unlock()
}

// Counter records a sample of the named counter (rendered as a Chrome
// counter track).
func (r *Recorder) Counter(name string, value int64) {
	if r == nil {
		return
	}
	ts := time.Now().UnixNano()
	r.mu.Lock()
	r.record(Event{TS: ts, Arg: value, Name: r.intern(name), Kind: KindCounter})
	r.mu.Unlock()
}

// Snapshot copies the current ring contents into a Buffer, oldest event
// first. The recorder stays usable; later events keep accumulating.
func (r *Recorder) Snapshot() *Buffer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &Buffer{
		Rank:    r.rank,
		Dropped: r.dropped,
		Names:   append([]string(nil), r.names...),
	}
	n := len(r.ring)
	b.Events = make([]Event, 0, n)
	if n == cap(r.ring) && r.next > uint64(n) {
		// Wrapped: the oldest surviving event sits at the next write slot.
		start := int(r.next % uint64(n))
		b.Events = append(b.Events, r.ring[start:]...)
		b.Events = append(b.Events, r.ring[:start]...)
	} else {
		b.Events = append(b.Events, r.ring...)
	}
	return b
}
