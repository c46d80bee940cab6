package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dss/internal/comm"
)

func TestMergeSortTieBreakCorrectOnDuplicates(t *testing.T) {
	// Heavy duplicates mixed with unique strings: tie breaking must keep
	// the output a sorted permutation.
	var global [][]byte
	for i := 0; i < 800; i++ {
		global = append(global, []byte("heavy-duplicate"))
	}
	for i := 0; i < 200; i++ {
		global = append(global, []byte(fmt.Sprintf("uniq-%04d", i)))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(global), func(i, j int) {
		global[i], global[j] = global[j], global[i]
	})
	for _, p := range []int{2, 4, 8} {
		locals := scatter(global, p)
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			o := MSOptions{LCP: true}
			o.GroupID = 1
			o.TieBreak = true
			return mergeSort(c, ss, o)
		})
		checkGlobalOrder(t, global, results, true)
	}
}

func TestMergeSortTieBreakBalancesAllEqualInput(t *testing.T) {
	// The pathological case of Section VIII: the input is one repeated
	// string. Without tie breaking, all strings land on one PE; with it,
	// every PE receives an even share.
	p := 8
	locals := make([][][]byte, p)
	var global [][]byte
	for pe := 0; pe < p; pe++ {
		for j := 0; j < 250; j++ {
			locals[pe] = append(locals[pe], []byte("only-one-value"))
			global = append(global, []byte("only-one-value"))
		}
	}
	maxFrag := func(tie bool) int {
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			o := MSOptions{LCP: true}
			o.GroupID = 1
			o.TieBreak = tie
			return mergeSort(c, ss, o)
		})
		checkGlobalOrder(t, global, results, true)
		m := 0
		for _, res := range results {
			if len(res.Strings) > m {
				m = len(res.Strings)
			}
		}
		return m
	}
	plain := maxFrag(false)
	tie := maxFrag(true)
	if plain < 2000 {
		t.Fatalf("plain MS unexpectedly balanced all-equal input: max fragment %d", plain)
	}
	if tie > 500 { // mean is 250
		t.Fatalf("tie-break MS fragment still unbalanced: %d of 2000", tie)
	}
}

func TestMergeSortRandomSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	global := genRandom(rng, 1500, 12, 3)
	for _, p := range []int{2, 4, 8} {
		locals := scatter(global, p)
		results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
			o := MSOptions{LCP: true}
			o.GroupID = 1
			o.RandomSampling = true
			o.Seed = 77
			return mergeSort(c, ss, o)
		})
		checkGlobalOrder(t, global, results, true)
	}
}

func TestTieBreakWithMSSimple(t *testing.T) {
	// Tie breaking composes with the no-LCP configuration too.
	var global [][]byte
	for i := 0; i < 600; i++ {
		global = append(global, []byte("xx"))
	}
	locals := scatter(global, 4)
	results, _ := runDistributed(t, locals, func(c *comm.Comm, ss [][]byte) fragment {
		o := MSOptions{}
		o.GroupID = 1
		o.TieBreak = true
		return mergeSort(c, ss, o)
	})
	checkGlobalOrder(t, global, results, true)
	for pe, res := range results {
		if len(res.Strings) > 300 {
			t.Fatalf("PE %d holds %d of 600 equal strings", pe, len(res.Strings))
		}
	}
}
