package transport

import "testing"

// TestPoolSizePolicy pins the two regimes of the buffer pool: power-of-two
// classes that recycle up to maxPooled, exact-size one-shot buffers above.
func TestPoolSizePolicy(t *testing.T) {
	var p Pool
	small := p.Get(3000)
	if len(small) != 3000 || cap(small) != 4096 {
		t.Fatalf("Get(3000): len %d cap %d, want 3000/4096", len(small), cap(small))
	}
	p.Put(small)
	if again := p.Get(4000); &again[0] != &small[0] {
		t.Fatalf("a released 4 KiB-class buffer was not reused")
	}
	if edge := p.Get(maxPooled); cap(edge) != maxPooled {
		t.Fatalf("Get(maxPooled): cap %d", cap(edge))
	}
	const n = 37_500_000
	big := p.Get(n)
	if len(big) != n || cap(big) != n {
		t.Fatalf("Get(%d): len %d cap %d, want the exact size", n, len(big), cap(big))
	}
	p.Put(big)
	for c, free := range p.classes {
		if len(free) != 0 {
			t.Fatalf("class %d parks %d buffers after releasing only a large one", c, len(free))
		}
	}
}
