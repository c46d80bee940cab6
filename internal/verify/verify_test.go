package verify

import (
	"errors"
	"testing"

	"dss/internal/comm"
	"dss/internal/strutil"
)

// run executes f on a p-PE machine and returns the first error.
func run(p int, f func(c *comm.Comm) error) error {
	return comm.New(p).Run(f)
}

func TestSortednessAccepts(t *testing.T) {
	frags := [][][]byte{
		{[]byte("a"), []byte("b")},
		{},                          // empty PE in the middle
		{[]byte("b"), []byte("cc")}, // equal boundary values allowed
		{[]byte("cc")},
	}
	err := run(4, func(c *comm.Comm) error {
		return SortednessLCP(c, frags[c.Rank()], nil, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortednessRejectsLocalDisorder(t *testing.T) {
	frags := [][][]byte{
		{[]byte("b"), []byte("a")},
		{[]byte("c")},
	}
	err := run(2, func(c *comm.Comm) error {
		return SortednessLCP(c, frags[c.Rank()], nil, 1)
	})
	if !errors.Is(err, ErrLocalOrder) {
		t.Fatalf("err = %v, want ErrLocalOrder", err)
	}
}

func TestSortednessRejectsBoundaryDisorder(t *testing.T) {
	frags := [][][]byte{
		{[]byte("m"), []byte("z")},
		{[]byte("a")}, // smaller than PE 0's last string
	}
	err := run(2, func(c *comm.Comm) error {
		return SortednessLCP(c, frags[c.Rank()], nil, 1)
	})
	if !errors.Is(err, ErrGlobalOrder) {
		t.Fatalf("err = %v, want ErrGlobalOrder", err)
	}
}

func TestSortednessSkipsEmptyBoundaries(t *testing.T) {
	// Only the outer PEs hold data; the middle must not break the chain.
	frags := [][][]byte{
		{[]byte("a")}, {}, {}, {[]byte("b")},
	}
	err := run(4, func(c *comm.Comm) error {
		return SortednessLCP(c, frags[c.Rank()], nil, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLCPsValidation(t *testing.T) {
	ss := [][]byte{[]byte("ab"), []byte("abc"), []byte("b")}
	check := func(lcps []int32) error {
		return run(1, func(c *comm.Comm) error { return SortednessLCP(c, ss, lcps, 1) })
	}
	if err := check([]int32{0, 2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := check([]int32{0, 1, 0}); !errors.Is(err, ErrLCP) {
		t.Fatalf("err = %v, want ErrLCP", err)
	}
	if err := check(nil); err != nil {
		t.Fatal("nil LCP array must be accepted (algorithms without LCP output)")
	}
}

// multiset folds a materialized output the way a streaming writer does and
// checks it with MultisetStream.
func multiset(c *comm.Comm, input, output [][]byte, gid int) error {
	var h uint64
	for _, s := range output {
		h = strutil.MultisetAdd(h, s)
	}
	return MultisetStream(c, input, h, int64(len(output)), gid)
}

func TestMultisetAcceptsPermutation(t *testing.T) {
	in := [][][]byte{
		{[]byte("x"), []byte("y")},
		{[]byte("z")},
	}
	out := [][][]byte{
		{[]byte("z"), []byte("y")}, // redistributed
		{[]byte("x")},
	}
	err := run(2, func(c *comm.Comm) error {
		return multiset(c, in[c.Rank()], out[c.Rank()], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultisetRejectsLossAndDuplication(t *testing.T) {
	in := [][][]byte{{[]byte("x"), []byte("y")}, {[]byte("z")}}
	lost := [][][]byte{{[]byte("x")}, {[]byte("z")}}
	err := run(2, func(c *comm.Comm) error {
		return multiset(c, in[c.Rank()], lost[c.Rank()], 1)
	})
	if !errors.Is(err, ErrMultiset) {
		t.Fatalf("lost string: err = %v", err)
	}
	swapped := [][][]byte{{[]byte("x"), []byte("x")}, {[]byte("z")}}
	err = run(2, func(c *comm.Comm) error {
		return multiset(c, in[c.Rank()], swapped[c.Rank()], 1)
	})
	if !errors.Is(err, ErrMultiset) {
		t.Fatalf("duplicated string: err = %v", err)
	}
}

func TestSingplePEVerify(t *testing.T) {
	err := run(1, func(c *comm.Comm) error {
		if err := SortednessLCP(c, [][]byte{[]byte("a"), []byte("b")}, nil, 1); err != nil {
			return err
		}
		return multiset(c, [][]byte{[]byte("a")}, [][]byte{[]byte("a")}, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}
