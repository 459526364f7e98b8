package alloc

// Core placement: the step after the selection, which maps every chosen
// operating point to concrete cores. HARP applies each decision on the
// application's side — a frame, a thread re-pin, an arena resize — so
// placement is a function of the selection and of the standing placement,
// the allocations the previous solve returned:
//
//   - a co-allocated application whose vector is unchanged keeps its grant
//     list itself, shared and never copied, unless the placement invariant
//     moves one of its grants. The others wrap round-robin over the kind's
//     idle cores first, then its co-allocated cores, then its isolated ones;
//   - an isolated application whose vector is unchanged keeps its cores
//     across an incremental merge: standing isolated grants never overlap,
//     so they are always still free, and the others fill the holes in
//     ascending core order. Cores of one kind are interchangeable, so this
//     never fails where the selection fits the capacity. A full solve hands
//     isolated cores out with the per-kind cursor in input order, as it
//     always has: a kept isolated grant skips a push, a push re-pins the
//     application and restarts its measurement smoothing, and in the
//     simulated Fig. 6 scenarios that moves measured inputs, three of the
//     twenty pinned paper journals and the paper energy figure;
//   - the placement invariant (check.CheckPlacement): while a kind has a core
//     that no allocation holds, no co-allocated grant of that kind sits on an
//     isolated allocation's core. A kept grant that breaks it moves to an
//     idle core, and only as many grants move as there are idle cores.
//
// Without a standing placement nothing is kept, and the pass is exactly the
// per-kind cursor it replaces: isolated applications take each kind's
// cores in input order, and co-allocated ones wrap from where that cursor
// stopped.
//
// The allocator keeps the standing placement's per-core occupancy between
// solves, so a merge places only the applications it re-solved: the others
// stay where they stand, and their grants are already counted.

import (
	"slices"

	"github.com/harp-rm/harp/internal/platform"
)

// occupancy is what a placement holds of each core.
type occupancy struct {
	iso   []bool  // an isolated allocation holds the core
	coUse []int32 // co-allocated grants on the core
}

// take adds (sign +1) or removes (sign -1) an allocation's grants.
func (o *occupancy) take(al *Allocation, sign int32) {
	for _, g := range al.Grants {
		if g.Core < 0 || g.Core >= len(o.iso) {
			continue
		}
		if al.CoAllocated {
			o.coUse[g.Core] += sign
		} else {
			o.iso[g.Core] = sign > 0
		}
	}
}

// placeScratch holds the placement pass's state, reused across solves.
type placeScratch struct {
	// occ is the standing placement's occupancy; work is the placement in
	// progress. A committed solve swaps them.
	occ, work occupancy
	kept      []bool      // per placed selection: the standing grants were kept
	next      []int       // per kind: the hole cursor, then the ring or idle cursor
	ring      []int       // per core, within its kind's range: the co-allocation order
	moved     []int       // positions whose kept grants the invariant moved
	pinMoves  []pinMove   // the moved grants of positions placeCores did not place
	buf       []CoreGrant // grants under construction
}

// pinMove is a new grant list for a pinned position.
type pinMove struct {
	pos    int
	grants []CoreGrant
}

// beginPlacement prepares the work occupancy for a merge that places the
// listed positions, src aligning them to the standing placement: the
// unlisted positions stay where they stand, so the work occupancy is the
// standing one without the departed positions (gone) and the listed ones.
func (a *Allocator) beginPlacement(list []int, src []int32, gone []int) *occupancy {
	ps := &a.scratch.place
	w := &ps.work
	w.iso = append(w.iso[:0], ps.occ.iso...)
	w.coUse = append(w.coUse[:0], ps.occ.coUse...)
	for _, p := range gone {
		w.take(&a.standing[p], -1)
	}
	for _, i := range list {
		if p := src[i]; p >= 0 {
			w.take(&a.standing[p], -1)
		}
	}
	return w
}

// commitPlacement makes the work occupancy the standing one.
func (a *Allocator) commitPlacement() {
	ps := &a.scratch.place
	ps.occ, ps.work = ps.work, ps.occ
}

// placeCores fills the Grants of the selections in sel. sel[j] carries the
// ID, Point and CoAllocated of position list[j], placed against the work
// occupancy beginPlacement prepared; a nil list places every position,
// sel[j] being position j's, from empty cores. src[i] is the position of
// position i's ID in the standing placement, or -1 (src nil: no standing
// placement). sel must not share memory with the standing placement.
// keepIsolated lets isolated applications keep their cores too (the merge).
//
// It returns the positions whose kept grants the placement invariant moved,
// ascending (scratch, valid until the next placement). The moves of listed
// positions are in sel; those of unlisted ones are left in
// placeScratch.pinMoves for the caller to apply.
func (a *Allocator) placeCores(sel []Allocation, list []int, src []int32, keepIsolated bool) ([]int, error) {
	ps := &a.scratch.place
	nc, nk := a.plat.NumCores(), len(a.plat.Kinds)
	ps.kept, ps.next, ps.ring = resize(ps.kept, len(sel)), resize(ps.next, nk), resize(ps.ring, nc)
	w, kept, next := &ps.work, ps.kept, ps.next
	clear(kept)
	if list == nil {
		w.iso, w.coUse = resize(w.iso, nc), resize(w.coUse, nc)
		clear(w.iso)
		clear(w.coUse)
	}
	at := func(j int) int {
		if list == nil {
			return j
		}
		return list[j]
	}

	// Keep what may be kept: isolated grants claim their cores, co-allocated
	// ones count their load.
	for j := range sel {
		al, i := &sel[j], at(j)
		if src == nil || src[i] < 0 || (!al.CoAllocated && !keepIsolated) {
			continue
		}
		if g, ok := keepable(al, &a.standing[src[i]], w.iso); ok {
			al.Grants, kept[j] = g, true
			w.take(al, +1)
		}
	}

	// Isolated applications fill the holes, per kind in ascending order.
	for k := range nk {
		next[k], _ = a.plat.CoreRange(platform.KindID(k))
	}
	for j := range sel {
		al := &sel[j]
		if al.CoAllocated || kept[j] {
			continue
		}
		buf := ps.buf[:0]
		for k, counts := range al.Point.Vector.Counts {
			lo, hi := a.plat.CoreRange(platform.KindID(k))
			for t, n := range counts {
				for ; n > 0; n-- {
					c := next[k]
					for c < hi && w.iso[c] {
						c++
					}
					if c >= hi {
						return nil, &CapacityError{App: al.ID, Kind: k, Granted: hi - lo, Capacity: hi - lo}
					}
					w.iso[c], next[k] = true, c+1
					buf = append(buf, CoreGrant{Core: c, Threads: t + 1})
				}
			}
		}
		ps.buf, al.Grants = buf, a.settle(buf, at(j), src)
	}

	// The co-allocation ring of each kind: idle cores, then cores only
	// co-allocated grants use, then isolated cores, each ascending. Without
	// kept grants that is the kind's free cores, then its isolated ones.
	ring := ps.ring
	for k := range nk {
		lo, hi := a.plat.CoreRange(platform.KindID(k))
		j := lo
		for class := 0; class < 3; class++ {
			for c := lo; c < hi; c++ {
				if placeClass(w.iso[c], w.coUse[c]) == class {
					ring[j] = c
					j++
				}
			}
		}
		next[k] = 0
	}
	for j := range sel {
		al := &sel[j]
		if !al.CoAllocated || kept[j] {
			continue
		}
		buf := ps.buf[:0]
		for k, counts := range al.Point.Vector.Counts {
			lo, hi := a.plat.CoreRange(platform.KindID(k))
			for t, n := range counts {
				for ; n > 0; n-- {
					c := ring[lo+next[k]%(hi-lo)]
					next[k]++
					w.coUse[c]++
					buf = append(buf, CoreGrant{Core: c, Threads: t + 1})
				}
			}
		}
		ps.buf, al.Grants = buf, a.settle(buf, at(j), src)
	}
	return a.restoreInvariant(sel, list, src)
}

// keepable returns the standing grants an allocation may keep: the standing
// allocation of the same ID held the same vector in the same mode, and every
// grant lies on the platform (isolated: on a core no kept allocation holds).
func keepable(al, was *Allocation, iso []bool) ([]CoreGrant, bool) {
	if was.CoAllocated != al.CoAllocated || !was.Point.Vector.Equal(al.Point.Vector) {
		return nil, false
	}
	for _, g := range was.Grants {
		if g.Core < 0 || g.Core >= len(iso) || (!al.CoAllocated && iso[g.Core]) {
			return nil, false
		}
	}
	return was.Grants, true
}

// placeClass orders a core in its kind's co-allocation ring: 0 idle, 1 used
// by co-allocated grants only, 2 held by an isolated allocation.
func placeClass(iso bool, coUse int32) int {
	switch {
	case iso:
		return 2
	case coUse > 0:
		return 1
	default:
		return 0
	}
}

// settle turns position i's freshly placed grants into its grant list: the
// standing list itself when they are equal to it, so a placement that lands
// where it stood allocates nothing, and a copy otherwise.
func (a *Allocator) settle(buf []CoreGrant, i int, src []int32) []CoreGrant {
	if len(buf) == 0 {
		return nil
	}
	if src != nil && src[i] >= 0 && slices.Equal(buf, a.standing[src[i]].Grants) {
		return a.standing[src[i]].Grants
	}
	return slices.Clone(buf)
}

// restoreInvariant moves kept co-allocated grants off isolated cores while
// their kind still has idle cores, in input order and onto the idle cores in
// ascending order. A moved allocation gets a fresh grant list; the standing
// one stays untouched. New grants never need it: the ring hands out idle
// cores first. With a list, the unlisted positions are pinned at their
// standing allocations, and their moves go to pinMoves.
func (a *Allocator) restoreInvariant(sel []Allocation, list []int, src []int32) ([]int, error) {
	ps := &a.scratch.place
	w, next := &ps.work, ps.next
	ps.moved, ps.pinMoves = ps.moved[:0], ps.pinMoves[:0]
	need := false
	for k := range a.plat.Kinds {
		lo, hi := a.plat.CoreRange(platform.KindID(k))
		next[k] = nextIdle(w, lo, hi)
		for c := lo; c < hi && next[k] < hi; c++ {
			need = need || (w.iso[c] && w.coUse[c] > 0)
		}
	}
	if !need {
		return ps.moved, nil
	}
	n := len(sel)
	if list != nil {
		n = len(src)
	}
	for i, j := 0, 0; i < n; i++ {
		var al *Allocation
		pinned := list != nil && (j == len(list) || list[j] != i)
		if pinned {
			al = &a.standing[src[i]]
		} else if al, j = &sel[j], j+1; !ps.kept[j-1] {
			continue
		}
		if !al.CoAllocated {
			continue
		}
		var grants []CoreGrant
		for gi, g := range al.Grants {
			if !w.iso[g.Core] {
				continue
			}
			kind, err := a.plat.KindOf(g.Core)
			if err != nil {
				return nil, err
			}
			_, hi := a.plat.CoreRange(kind)
			c := next[kind]
			if c == hi {
				continue
			}
			if grants == nil {
				grants = slices.Clone(al.Grants)
			}
			w.coUse[g.Core]--
			w.coUse[c]++
			grants[gi].Core = c
			next[kind] = nextIdle(w, c+1, hi)
		}
		switch {
		case grants == nil:
			continue
		case pinned:
			ps.pinMoves = append(ps.pinMoves, pinMove{i, grants})
		default:
			al.Grants = grants
		}
		ps.moved = append(ps.moved, i)
	}
	return ps.moved, nil
}

// nextIdle returns the first core in [c, hi) that no allocation holds, or hi.
func nextIdle(w *occupancy, c, hi int) int {
	for c < hi && (w.iso[c] || w.coUse[c] > 0) {
		c++
	}
	return c
}
