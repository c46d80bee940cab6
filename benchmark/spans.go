package main

import (
	"sort"
	"sync"
	"time"

	"dss/internal/comm"
)

// span is one timed call into a layer, recorded by the harness around the
// call: the program itself is not instrumented. Spans of one traced run share
// its walk id and are kept in memory until the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: the root
	Walk    string `json:"walk"`
	Name    string `json:"name"`
	Rank    int    `json:"rank"` // the PE, or -1 for the harness goroutine
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Work    int64  `json:"work"` // work done inside the span, counted at the same boundary
	Unit    string `json:"unit,omitempty"`
}

type recorder struct {
	mu     sync.Mutex
	origin time.Time
	walk   string
	spans  []span
}

func newRecorder(walk string) *recorder {
	return &recorder{origin: time.Now(), walk: walk}
}

func (r *recorder) open(parent int, name string, rank int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Walk: r.walk, Name: name, Rank: rank,
		StartNS: int64(time.Since(r.origin)),
	})
	return id
}

func (r *recorder) close(id int, work int64, unit string) time.Duration {
	end := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.EndNS, s.Work, s.Unit = end, work, unit
	return time.Duration(s.EndNS - s.StartNS)
}

// selfTime is the span's duration minus the part of it its children cover;
// children on different ranks overlap, so covered time is their union.
func (r *recorder) selfTime(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.spans[id]
	var kids []span
	for _, s := range r.spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, upto := int64(0), parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, upto), min(k.EndNS, parent.EndNS)
		if hi > lo {
			covered += hi - lo
			upto = hi
		}
	}
	return time.Duration(parent.EndNS - parent.StartNS - covered)
}

// stepResult is one layer call made on every PE at once.
type stepResult struct {
	busy []time.Duration // per PE
	work []int64         // per PE
}

// maxBusy is the bottleneck: the result of a step waits for its slowest PE.
func (s stepResult) maxBusy() time.Duration {
	var m time.Duration
	for _, d := range s.busy {
		m = max(m, d)
	}
	return m
}

func (s stepResult) sumBusy() time.Duration {
	var t time.Duration
	for _, d := range s.busy {
		t += d
	}
	return t
}

func (s stepResult) sumWork() int64 {
	var t int64
	for _, w := range s.work {
		t += w
	}
	return t
}

// rate is work per busy second summed over the PEs, in millions: what one PE
// achieves while its siblings compete for the same cores, as in a real run.
func (s stepResult) rate() float64 { return perSecond(s.sumWork(), s.sumBusy()) }

// step runs fn on every PE of m, one span per PE. Each step is its own
// Machine.Run, so the join between steps keeps one layer's stragglers out of
// the next layer's span.
func (r *recorder) step(m *comm.Machine, parent int, name, unit string, fn func(c *comm.Comm) (work int64, err error)) (stepResult, error) {
	res := stepResult{busy: make([]time.Duration, m.P()), work: make([]int64, m.P())}
	err := m.Run(func(c *comm.Comm) error {
		id := r.open(parent, name, c.Rank())
		work, err := fn(c)
		res.busy[c.Rank()] = r.close(id, work, unit)
		res.work[c.Rank()] = work
		return err
	})
	return res, err
}
