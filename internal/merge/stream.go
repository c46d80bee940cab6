// The two ends of the loser tree: a Source is where a run comes from, a
// Sink is where the merged items go. A resident run is a positioned slice
// (sliceSource); an exchanged run is a cursor over its still-encoded bytes,
// in RAM or in a page file (core's run sources). Merge sinks into pre-sized
// output slices; the Step-4 landings sink through MergeSink into an exact
// output arena or a sorted-run file writer.
//
// Work-count identity: the comparison sequence of a loser tree is a pure
// function of the head sequences, the per-head LCP values and the stream
// count. Every merge of the package runs the same tree over the same
// strings and LCPs, padded to the same power of two, so the character work
// is bit-identical whether the runs are resident or encoded and whether
// the output is an arena or a file — asserted by sink_test.go.
package merge

import "dss/internal/strutil"

// Source is a pull-based sorted string run.
//
// Aliasing contract: a string returned by Next must stay valid and
// byte-identical at least until the NEXT call to Next on the same source —
// the tree caches it as the stream's head and hands it to the sink before
// pulling again. Sources feeding Merge must keep their strings valid for
// good (the output Sequence aliases them); sources feeding MergeSink may
// reuse a string's storage once they are pulled past it. A
// Source must never hand out sub-slices of transport buffers that are
// recycled behind its back.
type Source interface {
	// Next consumes and returns the run's next string, blocking until it
	// is available, together with its LCP with the run's previous string
	// (ignored for the run's first string and by non-LCP merges) and its
	// satellite word (0 without satellites). ok=false reports the run
	// exhausted. A returned string must be NON-NIL — an empty string is an
	// empty non-nil slice, as the wire decoders produce — because nil is
	// the loser tree's +∞ exhausted sentinel: a nil string with ok=true
	// would silently drop the rest of the run.
	Next() (s []byte, lcp int32, sat uint64, ok bool)
}

// Source returns a pull view of the resident run, whose strings stay valid
// for good (a nil one comes out empty, non-nil).
func (s Sequence) Source() Source {
	return &sliceSource{set: s.set(), lcps: s.LCPs, sats: s.Sats}
}

// sliceSource is a resident run: a Sequence's columns and a read position.
type sliceSource struct {
	set     strutil.Set
	lcps    []int32
	sats    []uint64
	pos     int
	touched byte
}

const touchAhead = 32 // strings a resident run reads ahead of the tree

func (s *sliceSource) Next() ([]byte, int32, uint64, bool) {
	i, n := s.pos, s.set.Len()
	if i >= n {
		return nil, 0, 0, false
	}
	s.pos = i + 1
	if i%touchAhead == 0 {
		// The strings may lie anywhere (a caller's input, read through an
		// order) and the tree compares each head on its critical path:
		// touching the next batch in one loop of independent loads lets
		// their cache misses overlap.
		var blk [touchAhead][]byte
		var x byte
		for _, t := range s.set.Load(blk[:], min(i+touchAhead, n)) {
			if len(t) > 0 {
				x += t[0]
			}
		}
		s.touched += x
	}
	var lcp int32
	if s.lcps != nil {
		lcp = s.lcps[i]
	}
	var sat uint64
	if s.sats != nil {
		sat = s.sats[i]
	}
	str := s.set.At(i)
	if str == nil {
		str = []byte{} // nil is the tree's exhausted sentinel
	}
	return str, lcp, sat, true
}

// Sink receives one merged item: the index of the source it came from,
// the string, its LCP with the previous output (0 for the first; 0
// throughout for non-LCP merges) and its satellite word (0 without
// satellites). The string is only guaranteed valid for the duration of the
// call — sources may recycle their storage once they are pulled past it —
// so a sink that keeps it must copy, unless its source promises more.
type Sink func(run int, s []byte, lcp int32, sat uint64) error

// MergeSink merges the sources through the loser tree (LCP-aware if lcp)
// and pushes every output item into sink, in order. The item sequence and
// the returned character work are bit-identical to Merge over the same
// runs. A sink error aborts the merge and is returned with the count of
// items sunk before it; sources are left mid-run (the caller's cleanup owns
// them).
func MergeSink(sources []Source, lcp bool, sink Sink) (n int64, work int64, err error) {
	t := newTree(sources, lcp)
	defer t.release()
	t.init()
	m, err := t.emit(sink)
	return int64(m), t.work, err
}
