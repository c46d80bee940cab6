//go:build dsspoison

package transport_test

import (
	"strings"
	"testing"

	"dss/internal/transport/local"
)

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

// TestPoisonCatchesOwnershipViolations drives each way of breaking the
// Give/Release contract and the legal life cycle next to them.
func TestPoisonCatchesOwnershipViolations(t *testing.T) {
	f := local.New(2)
	a, b := f.Endpoint(0), f.Endpoint(1)

	// Legal: alloc, give, receive, release, and the buffer recycles.
	buf := a.Alloc(100)
	a.Give(1, 1, buf)
	got := b.Recv(0, 1)
	b.Release(got)
	for i, c := range got[:cap(got)] {
		if c != 0xDB {
			t.Fatalf("released buffer not poisoned at byte %d: %#x", i, c)
		}
	}
	b.Give(0, 1, b.Alloc(100)) // the pooled buffer is taken again: no complaint
	a.Release(a.Recv(1, 1))

	buf = a.Alloc(64)
	a.Give(1, 2, buf)
	mustPanic(t, "given twice", func() { a.Give(1, 2, buf) })
	mustPanic(t, "given away", func() { a.Release(buf) })
	got = b.Recv(0, 2) // handed on: the receiver owns it now
	b.Release(got)
	mustPanic(t, "released twice", func() { b.Release(got) })
	mustPanic(t, "released buffer", func() { a.Give(1, 2, got) })
}
