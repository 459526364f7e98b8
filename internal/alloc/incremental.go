package alloc

// Incremental re-solves: the churn-scale answer to "one session changed, why
// re-optimise all N?". The Allocator pins every application's standing
// allocation after a successful solve, with the content hash of the table
// it was solved under. When the next solve's inputs differ only in a small
// changed set — new applications, departed ones, tables whose content hash
// moved — the unchanged applications stay pinned at their standing
// allocations and only the changed set, plus a bounded neighbourhood of
// co-allocated pins that might now fit in isolation, is re-optimised against
// the residual capacity the pins leave free.
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
//   - any internal inconsistency (negative residual, pin/grant mismatch)
//     falls back to the full pipeline instead of erroring.
//
// Incremental results are deliberately NOT written to the solution cache:
// cache entries stay pure full-pipeline outputs, so a cache hit never
// depends on pin history. Like warm starts, incremental solving trades
// bit-identical cold-solve equivalence for latency and is therefore opt-in;
// every merged solution still satisfies the structural invariants
// (check.CheckAllocations) because pins are fragments of previously valid
// solutions and the re-solve only consumes capacity the pins left free.
//
// A merge is also where the allocator knows exactly what moved: only the
// re-solved positions (and applications the previous solve did not contain)
// can differ from the previous answer, so they are reported in
// Stats.Changed and the Manager pushes only those. The merged solution is
// written into a buffer the Allocator keeps and reuses — see the
// result-ownership rule on AllocateWithStats — and every per-solve work list
// lives in incScratch, so a steady-state merge allocates only the grants of
// the applications it re-solved.

import (
	"math"
	"slices"

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

// WithIncrementalCadence overrides the full-solve cadence (default
// DefaultIncrementalFullEvery; values < 1 are ignored).
func WithIncrementalCadence(every int) Option {
	return optionFunc(func(a *Allocator) {
		if every >= 1 {
			a.incFullEvery = every
		}
	})
}

// pinnedApp is one application's standing allocation with everything needed
// to detect change, free its capacity and account drift without touching its
// table.
type pinnedApp struct {
	// tableHi/tableLo identify the table the pin was solved under; any
	// difference marks the application as changed.
	tableHi, tableLo uint64
	// alloc is the standing allocation. Its grants are owned by the pin and
	// never written again once set: allocations handed to the caller — and
	// the decisions the Manager pushes from them — alias the same array.
	alloc Allocation
	// chosenCost and minCost feed the drift bound; minCost is the table's
	// own (opoint.Facts.MinCost, at the table's v*).
	chosenCost float64
	minCost    float64
	// seen is the pin-epoch (Allocator.incSeq) of the last solve that
	// contained the application. A pin the previous solve did not refresh
	// still describes a valid fragment, but the caller's view of the
	// application may have moved on since, so it is reported as changed.
	seen uint64
}

// incScratch holds the incremental path's per-solve work lists, reused
// across solves: out is the merged solution handed back to the caller (valid
// until the next solve), the rest never escapes.
type incScratch struct {
	out        []Allocation
	solved     []Allocation
	pins       []*pinnedApp
	inResolve  []bool
	resolveIdx []int
	changed    []int
	residual   []int
	pinnedCore []bool
	avail      [][]int
}

// tryIncremental attempts the incremental path for one solve. ok reports
// whether the merged solution should be returned; ok=false with a nil error
// means "run the full pipeline" (ineligible, cadence, drift, oversized
// changed set or an internal inconsistency). The merged solution goes to the
// Allocator's retained buffer.
func (a *Allocator) tryIncremental(apps []AppInput, capacity []int) ([]Allocation, Stats, bool, error) {
	if !a.inc || len(a.incPins) == 0 || a.incSinceFull >= a.incFullEvery {
		return nil, Stats{}, false, nil
	}
	nk := len(capacity)
	sc := &a.incScratch

	// Pass 1: which inputs changed since they were pinned? One map lookup per
	// application; the later passes reuse the pin pointers.
	if cap(sc.pins) < len(apps) {
		sc.pins = make([]*pinnedApp, roomFor(len(apps)))
		sc.inResolve = make([]bool, cap(sc.pins))
	}
	pins, inResolve := sc.pins[:len(apps)], sc.inResolve[:len(apps)]
	resolveIdx := sc.resolveIdx[:0]
	for i := range apps {
		app := &apps[i]
		if app.Table == nil {
			return nil, Stats{}, false, nil // full path reports the error
		}
		pin := a.incPins[app.ID]
		pins[i], inResolve[i] = pin, false
		if pin != nil {
			f := app.Table.Facts()
			if f.Hi == pin.tableHi && f.Lo == pin.tableLo {
				continue
			}
		}
		inResolve[i] = true
		resolveIdx = append(resolveIdx, i)
	}

	// Pass 2: bounded neighbourhood — the first few pinned co-allocated
	// applications join the re-solve. They hold no exclusive capacity, so
	// re-solving them can only lift them toward isolation when the change
	// (or a departure) freed cores.
	budget := incNeighbourhood
	for i := range apps {
		if budget == 0 {
			break
		}
		if !inResolve[i] && pins[i].alloc.CoAllocated {
			inResolve[i] = true
			resolveIdx = append(resolveIdx, i)
			budget--
		}
	}
	slices.Sort(resolveIdx)
	sc.resolveIdx = resolveIdx

	if 2*len(resolveIdx) > len(apps) {
		return nil, Stats{}, false, nil // full pipeline is cheaper from here
	}

	// Residual capacity and the concrete free cores the pins leave behind.
	sc.residual = growInts(sc.residual, nk)
	residual := sc.residual
	copy(residual, capacity)
	if nc := a.plat.NumCores(); len(sc.pinnedCore) != nc {
		sc.pinnedCore = make([]bool, nc)
		sc.avail = make([][]int, nk)
	}
	pinnedCore := sc.pinnedCore
	clear(pinnedCore)
	for i := range apps {
		if inResolve[i] || pins[i].alloc.CoAllocated {
			continue
		}
		al := &pins[i].alloc
		for k := range residual {
			residual[k] -= al.Point.Vector.Cores(platform.KindID(k))
		}
		for _, g := range al.Grants {
			if g.Core < 0 || g.Core >= len(pinnedCore) {
				return nil, Stats{}, false, nil // pin off the platform; full solve
			}
			pinnedCore[g.Core] = true
		}
	}
	avail := sc.avail
	for k := range a.plat.Kinds {
		if residual[k] < 0 {
			return nil, Stats{}, false, nil // pins no longer fit; full solve
		}
		avail[k] = avail[k][:0]
		lo, hi := a.plat.CoreRange(platform.KindID(k))
		for c := lo; c < hi; c++ {
			if !pinnedCore[c] {
				avail[k] = append(avail[k], c)
			}
		}
		if len(avail[k]) != residual[k] {
			return nil, Stats{}, false, nil // pin accounting disagrees; full solve
		}
	}

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
	var solved []Allocation
	if len(resolveIdx) > 0 {
		iters = a.selectPoints(states, residual, nil)
		a.refine(states, residual)
		var err error
		if cap(sc.solved) < len(states) {
			sc.solved = make([]Allocation, len(states))
		}
		solved, err = a.assignCoresAvail(states, avail, sc.solved[:len(states)])
		if err != nil {
			return nil, Stats{}, false, nil // inconsistent; full solve recovers
		}
	}

	// Merge in input order (the CheckAllocations contract), measure the merged
	// solution's cost slack for the drift bound, and collect what may have
	// moved: the re-solved positions plus pins the previous solve did not
	// contain.
	if cap(sc.out) < len(apps) {
		sc.out = make([]Allocation, roomFor(len(apps)))
	}
	out := sc.out[:len(apps)]
	changed := sc.changed[:0]
	var chosenSum, minSum float64
	coAllocated := 0
	ri := 0
	for i := range apps {
		if inResolve[i] {
			out[i] = solved[ri]
			st := states[ri]
			chosenSum += st.cands[st.chosen].cost
			minSum += apps[i].Table.Facts().MinCost
			changed = append(changed, i)
			ri++
		} else {
			pin := pins[i]
			out[i] = pin.alloc
			chosenSum += pin.chosenCost
			minSum += pin.minCost
			if pin.seen != a.incSeq {
				changed = append(changed, i)
			}
			pin.seen = a.incSeq + 1
		}
		if out[i].CoAllocated {
			coAllocated++
		}
	}
	sc.changed = changed[:0]
	slack := (1 + chosenSum) / (1 + minSum)
	if a.incHaveBase && slack > a.incDriftBound*a.incBaseSlack+1e-9 {
		return nil, Stats{}, false, nil // drifted past the bound; full solve
	}

	a.incSeq++
	for ri, i := range resolveIdx {
		st := states[ri]
		a.setPin(&apps[i], solved[ri], st.cands[st.chosen].cost)
	}
	a.prunePins(apps)
	a.incSinceFull++

	return out, Stats{
		Apps:        len(apps),
		Candidates:  cands,
		LambdaIters: iters,
		CoAllocated: coAllocated,
		Source:      SourceIncremental,
		Pinned:      len(apps) - len(resolveIdx),
		Resolved:    len(resolveIdx),
		Changed:     changed,
	}, true, nil
}

// rememberFullSolve re-pins every application at the full solve's (or cache
// hit's) allocations and re-anchors the drift baseline and the full-solve
// cadence. A no-op unless incremental solving is enabled.
func (a *Allocator) rememberFullSolve(apps []AppInput, allocs []Allocation) {
	if !a.inc || len(allocs) != len(apps) {
		return
	}
	if a.incPins == nil {
		a.incPins = make(map[string]*pinnedApp, len(apps))
	}
	a.incSeq++
	var chosenSum, minSum float64
	for i := range apps {
		cost := a.chosenCostOf(&apps[i], &allocs[i])
		chosenSum += cost
		minSum += a.setPin(&apps[i], allocs[i], cost).minCost
	}
	a.prunePins(apps)
	a.incSinceFull = 0
	a.incBaseSlack = (1 + chosenSum) / (1 + minSum)
	a.incHaveBase = true
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

// setPin records one application's standing allocation as of the current
// pin-epoch. The pin shares the allocation's grants with the caller's result
// and, after a full solve, with the solution cache: all three treat a grant
// list as immutable once built, so nothing is copied.
func (a *Allocator) setPin(app *AppInput, al Allocation, chosenCost float64) *pinnedApp {
	f := app.Table.Facts()
	pin := a.incPins[app.ID]
	if pin == nil {
		pin = &pinnedApp{}
		a.incPins[app.ID] = pin
	}
	pin.tableHi, pin.tableLo = f.Hi, f.Lo
	pin.minCost = f.MinCost
	pin.chosenCost = chosenCost
	pin.alloc = al
	pin.seen = a.incSeq
	return pin
}

// prunePins drops pins for departed applications once the map outgrows the
// live population — departed pins are unreachable (lookups go by current
// input IDs), so this is memory hygiene under session churn, not
// correctness.
func (a *Allocator) prunePins(apps []AppInput) {
	if len(a.incPins) <= 2*len(apps)+16 {
		return
	}
	keep := make(map[string]bool, len(apps))
	for i := range apps {
		keep[apps[i].ID] = true
	}
	for id := range a.incPins {
		if !keep[id] {
			delete(a.incPins, id)
		}
	}
}

// IncrementalStats reports the incremental solver's bookkeeping: how many
// merges have run since the last full solve and how many applications are
// currently pinned.
func (a *Allocator) IncrementalStats() (sinceFull, pinned int) {
	return a.incSinceFull, len(a.incPins)
}
