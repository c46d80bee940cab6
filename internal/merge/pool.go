package merge

import (
	"math/bits"
	"sync"
)

// treeState is the pooled backing store of a tree: all arrays have
// capacity ≥ the padded leaf count of the tree that borrowed them.
type treeState struct {
	loser []int
	curH  []int32
	heads [][]byte
	sats  []uint64
}

// treePools holds one sync.Pool per power-of-two size class: merges of
// similar K reuse each other's arrays, and the padded sentinel state stops
// being a per-merge allocation.
var treePools [bits.UintSize + 1]sync.Pool

func stateClass(k int) int { return bits.Len(uint(k)) }

func getTreeState(k int) *treeState {
	if st, _ := treePools[stateClass(k)].Get().(*treeState); st != nil && cap(st.loser) >= k {
		return st
	}
	return &treeState{
		loser: make([]int, k),
		curH:  make([]int32, k),
		heads: make([][]byte, k),
		sats:  make([]uint64, k),
	}
}

func putTreeState(st *treeState) {
	if st == nil {
		return
	}
	// Drop string references so pooled state never pins input arenas.
	clear(st.heads[:cap(st.heads)])
	treePools[stateClass(cap(st.loser))].Put(st)
}
