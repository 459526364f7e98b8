package alloc

// Incremental re-solves: the churn-scale answer to "one session changed, why
// re-optimise all N?". The standing placement holds the previous successful
// solve by input position, and the pins (pinSet) hold, per position, the
// content hash of the table it was solved under and its costs. The next solve
// aligns its input to those positions; when the inputs differ only in a
// small changed set — new applications, departed ones, tables whose content
// hash moved — the unchanged applications stay pinned at their standing
// allocations and only the changed set, plus a bounded neighbourhood of
// co-allocated pins that might now fit in isolation, is re-optimised against
// the residual capacity the pins leave free. An ID the previous solve did
// not contain is re-solved even if an older solve contained it, so
// re-admission never depends on what else left in between.
//
// The alignment and the changed set come from one of two places, and both
// give the same ones. A caller that recorded its edit (Edit, AllocateEdit:
// the Manager does) hands over the departed positions and the retabled
// ones; the merge then compares no ID, reads the table hash of the retabled
// positions only, and finds its neighbours by scanning from position 0 until
// the budget is spent (alignEdit, editedSet). A caller that records nothing
// (AllocateWithStats) gets the alignment by ID (align) and the changed set
// by comparing every position's table hash (changedSet). What a merge still
// visits at every position is the input-order drift sum and the moves of the
// kept pins to their new positions; the co-allocated count is kept as it
// changes.
//
// Guard rails keep the merged solution honest:
//
//   - a full solve runs on cadence (every DefaultIncrementalFullEvery
//     accepted merges), so pinned decisions cannot age indefinitely;
//   - a drift bound compares the merged solution's cost slack (chosen cost
//     over per-app minimum cost) against the last full solve's baseline and
//     falls back to a full solve when it degrades past
//     DefaultIncrementalDriftBound;
//   - a changed set larger than half the input falls through to the full
//     pipeline, which is cheaper at that point;
//   - any internal inconsistency (negative residual, a placement that does
//     not fit) falls back to the full pipeline instead of erroring.
//
// Incremental results are deliberately NOT written to the solution cache:
// cache entries stay pure full-pipeline selections, so a cache hit never
// depends on pin history. The merge also comes first: AllocateWithStats
// fingerprints the input and probes the cache only when the merge declines,
// in front of the full pipeline the cache memoises, so an accepted merge
// never hashes its input. An input equal to a recent full solve's is then
// served by a no-change merge rather than by the cache; both are valid
// answers, not necessarily the same one. Like warm starts, incremental
// solving trades bit-identical cold-solve equivalence for latency and is
// therefore opt-in; every merged solution still satisfies the structural
// invariants (check.CheckAllocations) because pins are fragments of
// previously valid solutions and the re-solve only consumes capacity the
// pins left free.
//
// A merge is also where the allocator knows exactly what moved: only the
// re-solved positions, and the pins whose grants the placement invariant
// moved, can differ from the previous answer, so they are reported in
// Stats.Changed and the Manager pushes only those. The merge places only
// the re-solved positions, around the pins (placement.go), and updates the
// standing placement in place, so a pin keeps its grant list itself. Every
// per-solve work list lives in incScratch, so a steady-state merge
// allocates only the grants of the applications it re-placed.

import (
	"math"
	"slices"
	"strings"

	"github.com/harp-rm/harp/internal/platform"
)

const (
	// DefaultIncrementalFullEvery is the full-solve cadence: after this many
	// accepted incremental merges the next solve runs the full pipeline.
	DefaultIncrementalFullEvery = 64
	// DefaultIncrementalDriftBound bounds the merged solution's cost-slack
	// ratio relative to the last full solve's baseline; beyond it the epoch
	// falls back to a full solve.
	DefaultIncrementalDriftBound = 1.25
	// incNeighbourhood is how many pinned co-allocated applications join each
	// incremental re-solve: the likeliest candidates to be lifted back into
	// spatial isolation when a change freed capacity.
	incNeighbourhood = 8
	// incLookAhead is how far past the alignment cursor the walk looks for
	// an input's ID before it falls back to an index.
	incLookAhead = 64
)

// WithIncremental enables incremental re-solves (default off). Incremental
// results depend on solve history (which applications were pinned where), so
// they are not bit-identical to cold solves — the same opt-in contract as
// WithWarmStart. Runs that need exact cold-solve reproducibility leave it
// off.
func WithIncremental(on bool) Option {
	return optionFunc(func(a *Allocator) { a.inc = on })
}

// pinSet holds, per standing position, what a merge needs to detect change
// and account drift without touching a table or an allocation: the content
// hash of the table the position was solved under, its costs and its
// co-allocation flag. Kept only with incremental solving on.
type pinSet struct {
	hi, lo  []uint64
	chosen  []float64
	minCost []float64 // the table's own (opoint.Facts.MinCost, at its v*)
	coAlloc []bool
}

func (s *pinSet) resize(n int) {
	s.hi, s.lo = resize(s.hi, n), resize(s.lo, n)
	s.chosen, s.minCost = resize(s.chosen, n), resize(s.minCost, n)
	s.coAlloc = resize(s.coAlloc, n)
}

// set records position i's pin and returns the table's minimum cost.
func (s *pinSet) set(i int, app *AppInput, coAlloc bool, chosenCost float64) float64 {
	f := app.Table.Facts()
	s.hi[i], s.lo[i] = f.Hi, f.Lo
	s.chosen[i], s.minCost[i] = chosenCost, f.MinCost
	s.coAlloc[i] = coAlloc
	return f.MinCost
}

// move copies the n pins at positions from.. of src to positions to.. of s;
// src may share s's arrays, with overlapping ranges.
func (s *pinSet) move(to int, src *pinSet, from, n int) {
	copy(s.hi[to:to+n], src.hi[from:from+n])
	copy(s.lo[to:to+n], src.lo[from:from+n])
	copy(s.chosen[to:to+n], src.chosen[from:from+n])
	copy(s.minCost[to:to+n], src.minCost[from:from+n])
	copy(s.coAlloc[to:to+n], src.coAlloc[from:from+n])
}

// align maps every input to the position its ID holds in the standing
// placement (src[i], -1 when that solve did not contain it), exactly, whatever the
// edit. A cursor walks the previous positions: an input keeps the pin at the
// cursor or, stepping over departures, one within the look-ahead; once every
// previous position is matched the remaining inputs are new. Past a failed
// look-ahead the unmatched positions are sorted by ID and the remaining
// inputs looked up. The standing positions left unmatched are the departed
// ones (placeScratch.departed). inPlace reports a mapping that is increasing and never
// moves a pin toward the back — departures and tail arrivals, not inserts or
// reorders — so place can apply it in place.
func (a *Allocator) align(apps []AppInput) (src []int32, inPlace bool) {
	sc := &a.incScratch
	was, unmatched := a.standing, sc.unmatched[:0]
	sc.src = resize(sc.src, len(apps))
	src = sc.src
	p, i := 0, 0
	for ; i < len(apps); i++ {
		end := min(len(was), p+incLookAhead+1)
		q := p
		for q < end && was[q].ID != apps[i].ID {
			q++
		}
		if q == end && (p < len(was) || len(unmatched) > 0) {
			break
		}
		src[i] = -1
		if q < end {
			for ; p < q; p++ {
				unmatched = append(unmatched, idAt{was[p].ID, int32(p)})
			}
			src[i] = int32(q)
			p++
		}
	}
	inPlace = true
	for k := p; k < len(was); k++ {
		unmatched = append(unmatched, idAt{was[k].ID, int32(k)})
	}
	if i < len(apps) {
		byID := func(e idAt, id string) int { return strings.Compare(e.id, id) }
		slices.SortFunc(unmatched, func(x, y idAt) int { return byID(x, y.id) })
		for last := int32(p - 1); i < len(apps); i++ {
			src[i] = -1
			if j, ok := slices.BinarySearchFunc(unmatched, apps[i].ID, byID); ok && unmatched[j].pos >= 0 {
				src[i], unmatched[j].pos = unmatched[j].pos, -1
				inPlace = inPlace && src[i] > last && int(src[i]) >= i
				last = src[i]
			}
		}
	}
	departed := a.scratch.place.departed[:0]
	for _, u := range unmatched {
		if u.pos >= 0 {
			departed = append(departed, u.pos)
		}
	}
	a.scratch.place.departed = departed
	clear(unmatched)
	sc.unmatched = unmatched[:0]
	return src, inPlace
}

// idAt is a previous position and the ID it held.
type idAt struct {
	id  string
	pos int32
}

// Edit is how a solve's input differs from the input the allocator last
// solved, as the caller that made the change recorded it (AllocateEdit).
// The survivors of that input keep their order, followed by the arrivals in
// order:
//
//   - Base is the length of the input the allocator last solved;
//   - Gone holds that input's departed positions, ascending;
//   - Retabled holds the new input's positions whose table pointer changed,
//     ascending; arrivals may be listed or not.
//
// Every survivor not in Retabled carries the very table it was last solved
// under, and a table is never written once it is handed to a solver
// (TestHandedOutTablesNeverChange), so the allocator reads no table hash of
// a kept position: only the retabled ones are compared with their pins.
type Edit struct {
	Base           int
	Gone, Retabled []int
}

// alignEdit is align for a caller that recorded the edit (nil: none): the
// survivors map past the departures in order and the arrivals are new, so
// no ID is compared, the departed positions are Gone and the mapping is
// always in place. ok is false when there is no edit or it cannot describe
// this input against the standing placement — Base is not its length, a
// list is not ascending within its range, or the survivors do not fit — and
// the caller aligns by ID instead.
func (a *Allocator) alignEdit(apps []AppInput, ed *Edit) (src []int32, ok bool) {
	if ed == nil {
		return nil, false
	}
	kept := ed.Base - len(ed.Gone)
	if ed.Base != len(a.standing) || kept < 0 || kept > len(apps) ||
		!ascendingBelow(ed.Gone, ed.Base) || !ascendingBelow(ed.Retabled, len(apps)) {
		return nil, false
	}
	sc := &a.incScratch
	sc.src = resize(sc.src, len(apps))
	src = sc.src
	departed := a.scratch.place.departed[:0]
	i, p := 0, 0
	for _, g := range ed.Gone {
		for ; p < g; p, i = p+1, i+1 {
			src[i] = int32(p)
		}
		departed = append(departed, int32(g))
		p++
	}
	for ; p < ed.Base; p, i = p+1, i+1 {
		src[i] = int32(p)
	}
	for ; i < len(apps); i++ {
		src[i] = -1
	}
	a.scratch.place.departed = departed
	return src, true
}

// ascendingBelow reports whether xs is strictly ascending within [0, n).
func ascendingBelow(xs []int, n int) bool {
	last := -1
	for _, x := range xs {
		if x <= last || x >= n {
			return false
		}
		last = x
	}
	return true
}

// place moves every pin and standing allocation to its new position: src[i]
// is where position i's sits now, or -1 when position i is new (the caller
// sets it, as it does for every re-solved position). Each run of
// consecutive positions moves in one copy. An inPlace mapping moves runs
// only toward the front, in ascending order, so no run overwrites one still
// to move; any other is gathered into new pin arrays and the spare buffer.
func (a *Allocator) place(src []int32, inPlace bool) {
	from, was := a.pins, a.standing
	if !inPlace {
		a.pins = pinSet{}
		a.pins.resize(len(src))
		a.standing, a.spare = resize(a.spare, len(src)), a.standing
	}
	for i := 0; i < len(src); {
		p, j := src[i], i+1
		for j < len(src) && p >= 0 && src[j] == p+int32(j-i) {
			j++
		}
		if p >= 0 && (int(p) != i || !inPlace) {
			a.pins.move(i, &from, int(p), j-i)
			copy(a.standing[i:j], was[p:int(p)+j-i])
		}
		i = j
	}
	a.pins.resize(len(src))
	a.standing = resize(a.standing, len(src))
}

// incScratch holds the incremental path's per-solve work lists, reused
// across solves; only changed escapes, as Stats.Changed (valid until the
// next solve).
type incScratch struct {
	src        []int32
	unmatched  []idAt
	retabled   []int
	resolveIdx []int
	changed    []int
	residual   []int
	solved     []Allocation
}

// mergeable reports whether the next solve may try the incremental path:
// incremental solving is on, a previous solve left pins, and the full-solve
// cadence is not due.
func (a *Allocator) mergeable() bool {
	return a.inc && len(a.standing) > 0 && a.incSinceFull < a.incFullEvery
}

// tryIncremental attempts the incremental path for one solve the caller
// found mergeable; src and inPlace are the input's alignment to the standing
// placement, and ed is the caller's edit when alignEdit took it (nil: src
// came from the ID walk). ok reports whether the merged solution should be
// returned; ok=false with a nil error means "run the full pipeline" (drift,
// oversized changed set or an internal inconsistency), and leaves the
// standing placement and the pins as they were. The merged solution is the
// standing placement, updated in place.
func (a *Allocator) tryIncremental(apps []AppInput, src []int32, inPlace bool, ed *Edit) ([]Allocation, Stats, bool, error) {
	pins := &a.pins
	sc := &a.incScratch

	// Re-solve what changed since the previous solve, and the first few
	// pinned co-allocated applications: they hold no exclusive capacity, so
	// re-solving them can only lift them toward isolation.
	var resolveIdx []int
	var ok bool
	if ed != nil {
		resolveIdx, ok = a.editedSet(apps, src, ed)
	} else {
		resolveIdx, ok = a.changedSet(apps, src)
	}
	if !ok {
		return nil, Stats{}, false, nil // full path reports the error
	}

	if 2*len(resolveIdx) > len(apps) {
		return nil, Stats{}, false, nil // full pipeline is cheaper from here
	}

	// The residual capacity: per kind, the cores no isolated pin holds.
	w := a.beginPlacement(resolveIdx, src)
	residual := sc.residual[:0]
	for k := range a.plat.Kinds {
		lo, hi := a.plat.CoreRange(platform.KindID(k))
		free := 0
		for _, held := range w.iso[lo:hi] {
			if !held {
				free++
			}
		}
		residual = append(residual, free)
	}
	sc.residual = residual

	// Re-solve the changed set against the residual capacity.
	states := a.scratch.ensureStates(len(resolveIdx))
	cands := 0
	for ri, i := range resolveIdx {
		if err := a.buildState(states[ri], apps[i]); err != nil {
			return nil, Stats{}, false, err
		}
		cands += len(states[ri].cands)
	}
	var iters int
	if len(resolveIdx) > 0 {
		iters = a.selectPoints(states, residual, nil)
		a.refine(states, residual)
	}

	// Measure the merged solution's cost slack for the drift bound, summed
	// in input order, before anything is committed.
	sel := resize(sc.solved, len(resolveIdx))
	sc.solved = sel
	var chosenSum, minSum float64
	ri := 0
	for i, p := range src {
		if ri < len(resolveIdx) && resolveIdx[ri] == i {
			st := states[ri]
			if st.chosen < 0 || st.chosen >= len(st.cands) {
				return nil, Stats{}, false, nil // inconsistent; full solve recovers
			}
			sel[ri] = Allocation{ID: apps[i].ID, Point: *st.cands[st.chosen].op, CoAllocated: st.coalloc}
			chosenSum += st.cands[st.chosen].cost
			minSum += apps[i].Table.Facts().MinCost
			ri++
			continue
		}
		chosenSum += pins.chosen[p]
		minSum += pins.minCost[p]
	}
	slack := (1 + chosenSum) / (1 + minSum)
	if slack > a.incDriftBound*a.incBaseSlack+1e-9 {
		return nil, Stats{}, false, nil // drifted past the bound; full solve
	}

	// Place the re-solved set around the pins.
	moved, err := a.placeCores(sel, resolveIdx, src, true)
	if err != nil {
		return nil, Stats{}, false, nil // inconsistent; full solve recovers
	}

	// Commit: merge in input order (the CheckAllocations contract). The
	// co-allocated count loses the departed and re-solved pins and gains
	// the re-solved results.
	for _, p := range a.scratch.place.departed {
		if pins.coAlloc[p] {
			a.coAllocated--
		}
	}
	for _, i := range resolveIdx {
		if p := src[i]; p >= 0 && pins.coAlloc[p] {
			a.coAllocated--
		}
	}
	a.place(src, inPlace)
	for ri, i := range resolveIdx {
		st := states[ri]
		pins.set(i, &apps[i], st.coalloc, st.cands[st.chosen].cost)
		a.standing[i] = sel[ri]
		if st.coalloc {
			a.coAllocated++
		}
	}
	for _, m := range a.scratch.place.pinMoves {
		a.standing[m.pos].Grants = m.grants
	}
	a.commitPlacement()
	a.incSinceFull++
	sc.changed = mergeSorted(sc.changed[:0], resolveIdx, moved)
	return a.standing, Stats{
		Apps:        len(apps),
		Candidates:  cands,
		LambdaIters: iters,
		CoAllocated: a.coAllocated,
		Source:      SourceIncremental,
		Changed:     sc.changed,
	}, true, nil
}

// changedSet returns the positions a merge re-solves, found by visiting
// every position: the new ones, the pins whose table's content hash moved,
// and the first incNeighbourhood unchanged co-allocated pins. ok is false
// when an input has no table.
func (a *Allocator) changedSet(apps []AppInput, src []int32) (resolveIdx []int, ok bool) {
	pins := &a.pins
	resolveIdx = a.incScratch.resolveIdx[:0]
	budget := incNeighbourhood
	for i, p := range src {
		if apps[i].Table == nil {
			return nil, false
		}
		if p >= 0 {
			f := apps[i].Table.Facts()
			same := f.Hi == pins.hi[p] && f.Lo == pins.lo[p]
			if same && pins.coAlloc[p] && budget > 0 {
				budget-- // a neighbour joins
			} else if same {
				continue
			}
		}
		resolveIdx = append(resolveIdx, i)
	}
	a.incScratch.resolveIdx = resolveIdx
	return resolveIdx, true
}

// editedSet returns the same positions as changedSet from the caller's
// edit (alignEdit took it), visiting only what the edit names: the
// arrivals, the retabled survivors whose content hash moved, and the
// survivors from position 0 until the neighbourhood budget is spent or no
// co-allocated survivor is left to find.
func (a *Allocator) editedSet(apps []AppInput, src []int32, ed *Edit) (resolveIdx []int, ok bool) {
	pins, sc := &a.pins, &a.incScratch
	kept := ed.Base - len(ed.Gone)
	moved := sc.retabled[:0]
	for _, i := range ed.Retabled {
		if i >= kept {
			break // an arrival: re-solved as one
		}
		t := apps[i].Table
		if t == nil {
			return nil, false
		}
		if f, p := t.Facts(), src[i]; f.Hi != pins.hi[p] || f.Lo != pins.lo[p] {
			moved = append(moved, i)
		}
	}
	sc.retabled = moved
	coKept := a.coAllocated
	for _, g := range ed.Gone {
		if pins.coAlloc[g] {
			coKept--
		}
	}
	resolveIdx = sc.resolveIdx[:0]
	budget, seen, m := incNeighbourhood, 0, 0
	for i := 0; i < kept && budget > 0 && seen < coKept; i++ {
		co := pins.coAlloc[src[i]]
		if co {
			seen++
		}
		if m < len(moved) && moved[m] == i {
			resolveIdx, m = append(resolveIdx, i), m+1
		} else if co {
			resolveIdx, budget = append(resolveIdx, i), budget-1 // a neighbour joins
		}
	}
	resolveIdx = append(resolveIdx, moved[m:]...)
	for i := kept; i < len(apps); i++ {
		if apps[i].Table == nil {
			return nil, false
		}
		resolveIdx = append(resolveIdx, i)
	}
	sc.resolveIdx = resolveIdx
	return resolveIdx, true
}

// mergeSorted appends the union of two ascending lists to dst, ascending.
func mergeSorted(dst, x, y []int) []int {
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || (len(x) > 0 && x[0] < y[0]):
			dst, x = append(dst, x[0]), x[1:]
		case len(x) == 0 || y[0] < x[0]:
			dst, y = append(dst, y[0]), y[1:]
		default:
			dst, x, y = append(dst, x[0]), x[1:], y[1:]
		}
	}
	return dst
}

// rememberFullSolve makes a full solve's (or cache hit's) allocations the
// standing placement and, with incremental solving on, re-pins every
// position and re-anchors the drift baseline and the full-solve cadence.
// states are the full solve's, whose chosen candidates already carry each
// position's cost; a cache hit has none (nil) and recomputes the costs.
func (a *Allocator) rememberFullSolve(apps []AppInput, allocs []Allocation, states []*appState) {
	a.standing, a.spare = allocs, a.standing
	a.commitPlacement()
	if !a.inc {
		return
	}
	pins := &a.pins
	pins.resize(len(apps))
	var chosenSum, minSum float64
	a.coAllocated = 0
	for i := range apps {
		if allocs[i].CoAllocated {
			a.coAllocated++
		}
		var cost float64
		if states != nil {
			cost = states[i].cands[states[i].chosen].cost
		} else {
			cost = a.chosenCostOf(&apps[i], &allocs[i])
		}
		chosenSum += cost
		minSum += pins.set(i, &apps[i], allocs[i].CoAllocated, cost)
	}
	a.incSinceFull = 0
	a.incBaseSlack = (1 + chosenSum) / (1 + minSum)
}

// chosenCostOf recomputes an allocation's cost under the app's v* (0 for
// unusable points such as the free fallback candidate, mirroring
// buildState).
func (a *Allocator) chosenCostOf(app *AppInput, al *Allocation) float64 {
	c := al.Point.Cost(app.Table.MaxUtility())
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return 0
	}
	return c
}
