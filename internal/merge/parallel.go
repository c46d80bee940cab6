package merge

import (
	"bytes"

	"dss/internal/par"
	"dss/internal/partition"
)

// DefaultParMin is the minimum number of strings below which the
// partitioned parallel merge is not worth its selection overhead and the
// merge runs sequentially even on a wide pool.
const DefaultParMin = 2048

// resolveParMin maps the configuration convention (0 = default, negative =
// disabled) to an effective threshold.
func resolveParMin(parMin int) int {
	if parMin == 0 {
		return DefaultParMin
	}
	return parMin
}

// Hooks are optional trace callbacks of the partitioned merge, threaded
// down from the comm layer's recorder. The zero value is fully disabled
// and costs nothing; the callbacks never influence what is merged.
type Hooks struct {
	// Obs observes each pool worker's busy span of the partitioned phase
	// (nil = unobserved, see par.Observer).
	Obs par.Observer
	// OnPartition is invoked once after multisequence selection with the
	// output boundaries: bounds[j]..bounds[j+1] is partition j's output
	// slot. The partition seams of the timeline come from here.
	OnPartition func(bounds []int)
}

// Options configure Merge.
type Options struct {
	// LCP selects the LCP-aware loser tree: the runs' LCP arrays are
	// consumed and the output carries one. Without it the plain tree of
	// FKmerge and MS-simple runs, input LCP arrays are ignored and the
	// output has none.
	LCP bool
	// ParMin gates the partitioned merge by total strings: 0 means
	// DefaultParMin, negative always merges sequentially.
	ParMin int
	// Hooks report worker spans and partition seams to the timeline trace.
	Hooks Hooks
}

// Merge performs a K-way merge of resident runs on a work pool: the runs
// are split into disjoint, globally ordered subranges by multisequence
// selection and each subrange is merged by an independent loser tree over
// slice sources positioned at its cut, sinking into its own slot of the
// pre-sized output. Output and the work count are byte-identical to the
// sequential merge at every pool width (a nil or width-1 pool, or fewer
// than ParMin strings, IS the sequential path); seam LCPs at partition
// boundaries come out of reseeding against the predecessor element.
// Returns the merged sequence, the characters inspected, and the pool
// busy-ns.
func Merge(pool *par.Pool, seqs []Sequence, opt Options) (Sequence, int64, int64) {
	total := 0
	anySats := false
	for _, s := range seqs {
		if opt.LCP && s.Len() > 0 && len(s.LCPs) != s.Len() {
			panic("merge: sequence missing LCP array")
		}
		if s.Sats != nil {
			if len(s.Sats) != s.Len() {
				panic("merge: satellite array length mismatch")
			}
			anySats = true
		}
		total += s.Len()
	}

	var out Sequence
	if total == 0 {
		return out, 0, 0
	}
	out.Strings = make([][]byte, total)
	if opt.LCP {
		out.LCPs = make([]int32, total)
	}
	if anySats {
		out.Sats = make([]uint64, total)
	}

	parts := 1
	if pool != nil && !pool.Sequential() {
		if parMin := resolveParMin(opt.ParMin); parMin >= 0 && total >= parMin {
			parts = min(pool.Cores(), total)
		}
	}
	// Partition: exact global boundaries over the runs (unbilled — the
	// sequential merge never performs these comparisons). One partition is
	// the whole output from the runs' starts.
	cuts := [][]int{make([]int, len(seqs))}
	bounds := []int{0, total}
	if parts > 1 {
		runs := make([][][]byte, len(seqs))
		for i, s := range seqs {
			runs[i] = s.Strings
		}
		cuts = partition.SplitPoints(runs, nil, parts)
		bounds = make([]int, parts+1)
		for j := 1; j <= parts; j++ {
			for q := range runs {
				bounds[j] += cuts[j][q]
			}
		}
		if opt.Hooks.OnPartition != nil {
			opt.Hooks.OnPartition(bounds)
		}
	}

	works := make([]int64, parts)
	mergePart := func(j int) {
		lo, hi := bounds[j], bounds[j+1]
		if lo == hi {
			return
		}
		slices := make([]sliceSource, len(seqs))
		srcs := make([]Source, len(seqs))
		for q, s := range seqs {
			slices[q] = sliceSource{seq: s, pos: cuts[j][q]}
			srcs[q] = &slices[q]
		}
		t := newTree(srcs, opt.LCP)
		if j == 0 {
			t.init() // billed: this IS the sequential merge's tree build
		} else {
			t.reseed(predecessor(seqs, cuts[j]))
		}
		i := lo
		t.emit(hi-lo, func(s []byte, lcp int32, sat uint64) error {
			out.Strings[i] = s
			if out.LCPs != nil {
				out.LCPs[i] = lcp
			}
			if out.Sats != nil {
				out.Sats[i] = sat
			}
			i++
			return nil
		})
		works[j] = t.work
		t.release()
	}
	var busy int64
	if parts > 1 {
		busy = pool.ForEachObs(parts, mergePart, opt.Hooks.Obs)
	} else {
		mergePart(0)
	}

	var work int64
	for _, w := range works {
		work += w
	}
	return out, work, busy
}

// predecessor returns the output element immediately before the partition
// starting at cuts: the maximal last-selected element, where equal strings
// compare by run index (higher run wins, matching the (string, run) order
// in which the merge emits them). Only called for partitions with a
// non-empty prefix, so at least one cut is positive.
func predecessor(seqs []Sequence, cuts []int) []byte {
	var w []byte
	found := false
	for q := range seqs {
		if cuts[q] == 0 {
			continue
		}
		cand := seqs[q].Strings[cuts[q]-1]
		if !found || bytes.Compare(cand, w) >= 0 {
			w, found = cand, true
		}
	}
	return w
}
