package strutil

// Set is a string array read through an order: element i is
// Strings[Order[i]], and a nil Order is the identity. It is the string set
// of Bingmann-Eberle-Sanders' sorters (tlx's StringSet): a PE's sorted
// local strings are its input array plus Step 1's permutation, so no sorted
// copy of the 24-byte slice headers is built to read them in order.
type Set struct {
	Strings [][]byte
	Order   []uint32
}

// Len returns the number of elements.
func (s Set) Len() int {
	if s.Order == nil {
		return len(s.Strings)
	}
	return len(s.Order)
}

// At returns element i.
func (s Set) At(i int) []byte {
	if s.Order == nil {
		return s.Strings[i]
	}
	return s.Strings[s.Order[i]]
}

// Slice returns the elements [lo, hi) as a set over the same strings.
func (s Set) Slice(lo, hi int) Set {
	if s.Order == nil {
		return Set{Strings: s.Strings[lo:hi]}
	}
	return Set{Strings: s.Strings, Order: s.Order[lo:hi]}
}

// Load returns the elements from i on, as many as dst holds (fewer at the
// end), loaded into dst — or, for the identity order, the sub-slice of
// Strings itself. Its loop does nothing but independent loads, so the cache
// misses of a block of headers read through an order overlap, where a loop
// that reads each header just before working on its string takes them one
// at a time.
func (s Set) Load(dst [][]byte, i int) [][]byte {
	n := min(len(dst), s.Len()-i)
	if s.Order == nil {
		return s.Strings[i : i+n]
	}
	for j, k := range s.Order[i : i+n] {
		dst[j] = s.Strings[k]
	}
	return dst[:n]
}

// Gather returns the elements in set order as one fresh array.
func (s Set) Gather() [][]byte {
	out := make([][]byte, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}
