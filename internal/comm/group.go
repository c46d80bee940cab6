package comm

import (
	"fmt"
	"sort"

	"dss/internal/wire"
)

// Group is a communicator: an ordered subset of the machine's PEs on which
// collective operations are defined (like an MPI communicator). All members
// of a group must call the group's collectives in the same order. Distinct
// groups that are live at the same time must use distinct gid values so
// that their messages cannot be confused.
type Group struct {
	c     *Comm
	ranks []int // global ranks of the members, ascending
	myIdx int   // index of this PE within ranks
	gid   int   // tag namespace of this group
	seq   int   // per-group collective sequence number
}

// NewGroup creates a communicator over the given global ranks (which must
// contain the calling PE and be identical, including order, on every
// member). gid selects the tag namespace; concurrent groups need distinct
// gids, and the same logical group must use the same gid on all members.
func NewGroup(c *Comm, ranks []int, gid int) *Group {
	if !sort.IntsAreSorted(ranks) {
		panic("comm: group ranks must be sorted")
	}
	myIdx := -1
	for i, r := range ranks {
		if r == c.Rank() {
			myIdx = i
			break
		}
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("comm: PE %d not a member of group %v", c.Rank(), ranks))
	}
	return &Group{c: c, ranks: ranks, myIdx: myIdx, gid: gid}
}

// N returns the group size.
func (g *Group) N() int { return len(g.ranks) }

// Idx returns the calling PE's index within the group.
func (g *Group) Idx() int { return g.myIdx }

// Comm returns the underlying per-PE endpoint.
func (g *Group) Comm() *Comm { return g.c }

// nextTag reserves a fresh tag for one collective operation. Members stay
// in lockstep because they execute the same sequence of collectives.
func (g *Group) nextTag() int {
	g.seq++
	return g.gid<<32 | g.seq
}

// send/recv helpers addressing group indices.
func (g *Group) send(idx, tag int, data []byte) { g.c.Send(g.ranks[idx], tag, data) }
func (g *Group) recv(idx, tag int) []byte       { return g.c.Recv(g.ranks[idx], tag) }

// Barrier blocks until every group member has entered it. It uses the
// dissemination algorithm: ⌈log n⌉ rounds of pairwise signalling, in round
// k an empty message to member idx+k and one from member idx−k.
func (g *Group) Barrier() {
	tag := g.nextTag()
	n := len(g.ranks)
	for k := 1; k < n; k <<= 1 {
		g.send((g.myIdx+k)%n, tag, nil)
		g.recv((g.myIdx-k+n)%n, tag)
	}
}

// Bcast distributes root's data to all members along a binomial tree
// (O(log n) rounds, every member sends at most log n messages). Every
// member returns the payload; on the root the input is returned unchanged.
func (g *Group) Bcast(root int, data []byte) []byte {
	tag := g.nextTag()
	n := len(g.ranks)
	rel := (g.myIdx - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			data = g.recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			g.send(dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// gatherEntry is one member's contribution inside a gather bundle.
func packGather(entries map[int][]byte) []byte {
	w := wire.NewBuffer(64)
	w.Uvarint(uint64(len(entries)))
	// Deterministic order for reproducible byte counts.
	idxs := make([]int, 0, len(entries))
	for idx := range entries {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		w.Uvarint(uint64(idx))
		w.BytesPrefixed(entries[idx])
	}
	return w.Bytes()
}

func unpackGather(msg []byte, into map[int][]byte) error {
	r := wire.NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < cnt; i++ {
		idx, err := r.Uvarint()
		if err != nil {
			return err
		}
		payload, err := r.BytesPrefixed()
		if err != nil {
			return err
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		into[int(idx)] = cp
	}
	return nil
}

// Gatherv collects every member's payload at root along a binomial tree.
// On the root it returns a slice indexed by group index; on other members
// it returns nil.
func (g *Group) Gatherv(root int, data []byte) [][]byte {
	tag := g.nextTag()
	n := len(g.ranks)
	rel := (g.myIdx - root + n) % n
	collected := map[int][]byte{g.myIdx: data}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			dst := (rel - mask + root) % n
			g.send(dst, tag, packGather(collected))
			return nil
		}
		srcRel := rel + mask
		if srcRel < n {
			src := (srcRel + root) % n
			bundle := g.recv(src, tag)
			if err := unpackGather(bundle, collected); err != nil {
				panic(fmt.Sprintf("comm: corrupt gather bundle: %v", err))
			}
			g.c.Release(bundle) // unpackGather copied the payloads out
		}
		mask <<= 1
	}
	out := make([][]byte, n)
	for idx, payload := range collected {
		out[idx] = payload
	}
	return out
}

// Allgatherv collects every member's payload on every member: a binomial
// gather to member 0 (Gatherv with root 0) followed by a binomial
// broadcast of the packed bundle. The returned payloads are copies; the
// caller keeps ownership of data.
func (g *Group) Allgatherv(data []byte) [][]byte {
	gatherTag, bcastTag := g.nextTag(), g.nextTag()
	n := len(g.ranks)
	collected := map[int][]byte{g.myIdx: data}
	for mask := 1; mask < n; mask <<= 1 {
		if g.myIdx&mask != 0 {
			g.send(g.myIdx-mask, gatherTag, packGather(collected))
			break
		}
		if src := g.myIdx + mask; src < n {
			bundle := g.recv(src, gatherTag)
			if err := unpackGather(bundle, collected); err != nil {
				panic(fmt.Sprintf("comm: corrupt gather bundle: %v", err))
			}
			g.c.Release(bundle) // unpackGather copied the payloads out
		}
	}
	// Member 0 packs the full set; binomial broadcast of the bundle.
	var packed []byte
	if g.myIdx == 0 {
		packed = packGather(collected)
	}
	mask := 1
	for mask < n {
		if g.myIdx&mask != 0 {
			packed = g.recv(g.myIdx-mask, bcastTag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if g.myIdx+mask < n {
			g.send(g.myIdx+mask, bcastTag, packed)
		}
	}
	m := make(map[int][]byte)
	if err := unpackGather(packed, m); err != nil {
		panic(fmt.Sprintf("comm: corrupt allgather bundle: %v", err))
	}
	g.c.Release(packed)
	out := make([][]byte, n)
	for idx, payload := range m {
		out[idx] = payload
	}
	return out
}

// Alltoallv performs personalized all-to-all communication: parts[i] is the
// payload for group member i, and the result's i-th entry is the payload
// received from member i (the own entry is a copy of the own part). Direct
// delivery: n-1 pairwise rounds, which is the low-volume (cost O(αp + βh))
// variant discussed in Section II. It sends to members me+1, me+2, ... and
// then receives from each peer; sends are eager, so no round waits on
// another.
func (g *Group) Alltoallv(parts [][]byte) [][]byte {
	n := len(g.ranks)
	if len(parts) != n {
		panic(fmt.Sprintf("comm: alltoallv needs %d parts, got %d", n, len(parts)))
	}
	tag := g.nextTag()
	for i := 1; i < n; i++ {
		dst := (g.myIdx + i) % n
		g.send(dst, tag, parts[dst])
	}
	out := make([][]byte, n)
	out[g.myIdx] = append(make([]byte, 0, len(parts[g.myIdx])), parts[g.myIdx]...)
	for i := 1; i < n; i++ {
		src := (g.myIdx - i + n) % n
		out[src] = g.recv(src, tag)
	}
	return out
}

// ReduceBytes folds every member's payload into one value at root using a
// binomial tree. combine must be associative over the payloads in group
// index order: combine(a, b) where a's members all have lower group indices
// than b's, and must not retain hi (it is recycled after the call).
// Non-roots return nil.
func (g *Group) ReduceBytes(root int, data []byte, combine func(lo, hi []byte) []byte) []byte {
	tag := g.nextTag()
	n := len(g.ranks)
	rel := (g.myIdx - root + n) % n
	acc := data
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			dst := (rel - mask + root) % n
			g.send(dst, tag, acc)
			return nil
		}
		srcRel := rel + mask
		if srcRel < n {
			src := (srcRel + root) % n
			hi := g.recv(src, tag)
			acc = combine(acc, hi)
			g.c.Release(hi)
		}
		mask <<= 1
	}
	return acc
}

// ReduceUint64 performs an elementwise reduction of equal-length uint64
// vectors at root. Non-roots return nil.
func (g *Group) ReduceUint64(root int, vals []uint64, op func(a, b uint64) uint64) []uint64 {
	res := g.ReduceBytes(root, wire.EncodeUint64s(vals), func(lo, hi []byte) []byte {
		a, err1 := wire.DecodeUint64s(lo)
		b, err2 := wire.DecodeUint64s(hi)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			panic("comm: corrupt reduce payload")
		}
		for i := range a {
			a[i] = op(a[i], b[i])
		}
		return wire.EncodeUint64s(a)
	})
	if res == nil {
		return nil
	}
	out, err := wire.DecodeUint64s(res)
	if err != nil {
		panic("comm: corrupt reduce result")
	}
	return out
}

// AllreduceUint64 performs an elementwise reduction visible on every member.
func (g *Group) AllreduceUint64(vals []uint64, op func(a, b uint64) uint64) []uint64 {
	res := g.ReduceUint64(0, vals, op)
	var packed []byte
	if g.myIdx == 0 {
		packed = wire.EncodeUint64s(res)
	}
	packed = g.Bcast(0, packed)
	out, err := wire.DecodeUint64s(packed)
	if err != nil {
		panic("comm: corrupt allreduce result")
	}
	g.c.Release(packed)
	return out
}

// Sum and Max are reduction operators for ReduceUint64/AllreduceUint64.
func Sum(a, b uint64) uint64 { return a + b }

// Max returns the larger operand.
func Max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ExscanUint64 returns the exclusive prefix sums of one value per member:
// member i receives Σ_{j<i} vals_j (member 0 receives 0), plus the global
// total. Implemented with an allgather, which is volume-optimal for the
// single-word values the sorters need (bucket sizes, string counts).
func (g *Group) ExscanUint64(val uint64) (prefix, total uint64) {
	parts := g.Allgatherv(wire.EncodeUint64s([]uint64{val}))
	for i, p := range parts {
		vs, err := wire.DecodeUint64s(p)
		if err != nil || len(vs) != 1 {
			panic("comm: corrupt exscan payload")
		}
		if i < g.myIdx {
			prefix += vs[0]
		}
		total += vs[0]
	}
	g.c.Release(parts...)
	return prefix, total
}
