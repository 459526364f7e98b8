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
// A merge has one input, an Edit: the departed positions and the retabled
// ones. The Manager hands over the edit it recorded (AllocateEdit); any
// other caller, and an edit that does not describe the standing placement,
// gets one derived from IDs that lists every survivor as retabled
// (deriveEdit). The merge compares no ID, reads the table hash of the
// retabled positions only, and finds its neighbours by scanning from
// position 0 until the budget is spent (alignEdit, editedSet). An input no
// edit describes — a reorder, an insert before a survivor — is aligned by
// ID for placement only, so cores stay put, and gets a full solve. What a
// merge still visits at every position is the drift sum and the moves of
// the kept pins; the co-allocated count is kept as it changes.
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

// move copies the n pins at positions from.. to positions to..; the ranges
// may overlap.
func (s *pinSet) move(to, from, n int) {
	copy(s.hi[to:to+n], s.hi[from:from+n])
	copy(s.lo[to:to+n], s.lo[from:from+n])
	copy(s.chosen[to:to+n], s.chosen[from:from+n])
	copy(s.minCost[to:to+n], s.minCost[from:from+n])
	copy(s.coAlloc[to:to+n], s.coAlloc[from:from+n])
}

// Edit is how a solve's input differs from the input the allocator last
// solved, and the one way a solve relates its input to the standing
// placement. The survivors of that input keep their order, followed by the
// arrivals in order:
//
//   - Base is the length of the input the allocator last solved;
//   - Gone holds that input's departed positions, ascending;
//   - Retabled holds the new input's positions whose table pointer changed,
//     ascending; arrivals may be listed or not.
//
// Every survivor not in Retabled carries the very table it was last solved
// under, and a table is never written once it is handed to a solver
// (TestHandedOutTablesNeverChange), so the allocator reads no table hash of
// a kept position: only the retabled ones are compared with their pins. A
// caller that hands over none gets an edit derived from IDs (deriveEdit),
// and an input no edit describes — a reorder, an insert before a survivor —
// gets a full solve.
type Edit struct {
	Base           int
	Gone, Retabled []int
}

// describes reports whether ed describes apps against the standing
// placement: Base is its length, each list is ascending within its range
// and the survivors fit.
func (a *Allocator) describes(apps []AppInput, ed *Edit) bool {
	if ed == nil {
		return false
	}
	kept := ed.Base - len(ed.Gone)
	return ed.Base == len(a.standing) && kept >= 0 && kept <= len(apps) &&
		ascendingBelow(ed.Gone, ed.Base) && ascendingBelow(ed.Retabled, len(apps))
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

// deriveEdit is the edit of a caller that recorded none, walking the
// standing IDs in order against the input's, one compare per position: a
// standing ID the input does not hold next has departed. Every survivor is
// listed in Retabled, so the merge compares each one's table hash with its
// pin. It returns nil when the input is not the survivors in order followed
// by arrivals: when an arrival's ID is a departed one.
func (a *Allocator) deriveEdit(apps []AppInput) *Edit {
	sc, was := &a.incScratch, a.standing
	ed := &sc.derived
	ed.Base, ed.Gone, ed.Retabled = len(was), ed.Gone[:0], ed.Retabled[:0]
	kept := 0
	for p := range was {
		if kept < len(apps) && apps[kept].ID == was[p].ID {
			ed.Retabled = append(ed.Retabled, kept)
			kept++
		} else {
			ed.Gone = append(ed.Gone, p)
		}
	}
	if len(ed.Gone) == 0 || kept == len(apps) {
		return ed
	}
	for _, p := range ed.Gone {
		sc.ids[was[p].ID] = int32(p)
	}
	back := false
	for i := kept; i < len(apps) && !back; i++ {
		_, back = sc.ids[apps[i].ID]
	}
	for _, p := range ed.Gone {
		delete(sc.ids, was[p].ID)
	}
	if back {
		return nil
	}
	return ed
}

// alignEdit maps each input to where its pin and standing allocation sit
// now (src[i], -1 for an arrival). With an edit that describes the input,
// the survivors map past the departures in order, and no ID is compared.
// Without one (nil), each input maps to the standing position of its ID
// through an index over every standing ID: placement keeps grants by it,
// so cores stay put, but the solve is a full one.
func (a *Allocator) alignEdit(apps []AppInput, ed *Edit) []int32 {
	sc := &a.incScratch
	sc.src = resize(sc.src, len(apps))
	src := sc.src
	if ed == nil {
		for p := range a.standing {
			sc.ids[a.standing[p].ID] = int32(p)
		}
		for i := range apps {
			p, ok := sc.ids[apps[i].ID]
			src[i] = -1
			if ok {
				src[i] = p
				delete(sc.ids, apps[i].ID)
			}
		}
		clear(sc.ids)
		return src
	}
	i, p := 0, 0
	for _, g := range ed.Gone {
		for ; p < g; p, i = p+1, i+1 {
			src[i] = int32(p)
		}
		p++
	}
	for ; p < ed.Base; p, i = p+1, i+1 {
		src[i] = int32(p)
	}
	for ; i < len(apps); i++ {
		src[i] = -1
	}
	return src
}

// place moves every pin and standing allocation to its new position: src[i]
// is where position i's sits now, or -1 when position i is new (the caller
// sets it, as it does for every re-solved position). Each run of
// consecutive positions moves in one copy, toward the front and in
// ascending order, so no run overwrites one still to move (alignEdit).
func (a *Allocator) place(src []int32) {
	for i := 0; i < len(src); {
		p, j := src[i], i+1
		for j < len(src) && p >= 0 && src[j] == p+int32(j-i) {
			j++
		}
		if p >= 0 && int(p) != i {
			a.pins.move(i, int(p), j-i)
			copy(a.standing[i:j], a.standing[p:int(p)+j-i])
		}
		i = j
	}
	a.pins.resize(len(src))
	a.standing = resize(a.standing, len(src))
}

// incScratch holds the alignment's and the merge's per-solve work lists,
// reused across solves; only changed escapes, as Stats.Changed (valid until
// the next solve). ids is empty between solves.
type incScratch struct {
	src        []int32
	derived    Edit
	ids        map[string]int32
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
// found mergeable; ed describes the input against the standing placement
// and src is its alignment (alignEdit). ok reports whether the merged
// solution should be returned; ok=false with a nil error means "run the
// full pipeline" (drift, oversized changed set or an internal
// inconsistency), and leaves the standing placement and the pins as they
// were. The merged solution is the standing placement, updated in place.
func (a *Allocator) tryIncremental(apps []AppInput, src []int32, ed *Edit) ([]Allocation, Stats, bool, error) {
	pins := &a.pins
	sc := &a.incScratch

	// Re-solve what changed since the previous solve, and the first few
	// pinned co-allocated applications: they hold no exclusive capacity, so
	// re-solving them can only lift them toward isolation.
	resolveIdx, ok := a.editedSet(apps, src, ed)
	if !ok {
		return nil, Stats{}, false, nil // full path reports the error
	}

	if 2*len(resolveIdx) > len(apps) {
		return nil, Stats{}, false, nil // full pipeline is cheaper from here
	}

	// The residual capacity: per kind, the cores no isolated pin holds.
	w := a.beginPlacement(resolveIdx, src, ed.Gone)
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
	for _, p := range ed.Gone {
		if pins.coAlloc[p] {
			a.coAllocated--
		}
	}
	for _, i := range resolveIdx {
		if p := src[i]; p >= 0 && pins.coAlloc[p] {
			a.coAllocated--
		}
	}
	a.place(src)
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

// editedSet returns the positions a merge re-solves, visiting only what the
// edit names: the arrivals, the retabled survivors whose table's content
// hash moved, and the first incNeighbourhood co-allocated survivors that
// are not re-solved already, found from position 0 until the budget is
// spent or no co-allocated survivor is left. ok is false when a visited
// input has no table.
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
