package alloc

import (
	"fmt"
	"slices"

	"github.com/harp-rm/harp/internal/platform"
)

// MapPins is the reference the positional pins must reproduce: the
// incremental merge as it stood when pins were kept in a map by application
// ID, each with the pin-epoch of the last solve that contained it, pruned
// only once the map outgrew the live population. It drives an Allocator
// with incremental solving off for the cache probe and the full pipeline
// behind a declined merge, handing it the reference's own last answer as
// the standing placement, and re-solves and places through that
// Allocator's own solver and placement passes, aligned by a map. Like the
// Allocator, it merges only an input that is the last answer's survivors in
// order followed by arrivals (AlignByMap); any other input is a full solve.
type MapPins struct {
	b            *Allocator
	fullEvery    int
	driftBound   float64
	pins         map[string]*refPin
	last         []Allocation
	seq          uint64
	sinceFull    int
	baseSlack    float64
	haveBase     bool
	changedSlice []int
}

type refPin struct {
	tableHi, tableLo    uint64
	alloc               Allocation
	chosenCost, minCost float64
	seen                uint64
}

// NewIncrementalPair builds an incremental Allocator with the given options,
// full-solve cadence and drift bound, and the map-keyed reference configured
// alike.
func NewIncrementalPair(p *platform.Platform, cadence int, drift float64, opts ...Option) (*Allocator, *MapPins, error) {
	a, err := New(p, append(opts, WithIncremental(true))...)
	if err != nil {
		return nil, nil, err
	}
	a.incFullEvery = cadence
	a.incDriftBound = drift
	b, err := New(p, opts...)
	if err != nil {
		return nil, nil, err
	}
	return a, &MapPins{b: b, fullEvery: cadence, driftBound: drift, pins: map[string]*refPin{}, changedSlice: make([]int, 0, 16)}, nil
}

// Pinned is the population the positional pins hold; after a successful
// solve it is that solve's input.
func (a *Allocator) Pinned() int { return len(a.pins.hi) }

// AllocateWithStats is the Allocator's with the map-keyed incremental path:
// the merge first, then the cache probe, then the full pipeline.
func (r *MapPins) AllocateWithStats(apps []AppInput) ([]Allocation, Stats, error) {
	b := r.b
	if len(apps) == 0 {
		return b.AllocateWithStats(apps)
	}
	capacity := make([]int, len(b.plat.Kinds))
	for k, kind := range b.plat.Kinds {
		capacity[k] = kind.Count
	}
	b.standing = slices.Clone(r.last)
	if out, st, ok, err := r.tryIncremental(apps, capacity); ok || err != nil {
		return out, st, err
	}
	out, st, err := b.AllocateWithStats(apps)
	if err == nil {
		r.rememberFullSolve(apps, out)
	}
	return out, st, err
}

func (r *MapPins) tryIncremental(apps []AppInput, capacity []int) ([]Allocation, Stats, bool, error) {
	a := r.b
	if len(r.pins) == 0 || r.sinceFull >= r.fullEvery {
		return nil, Stats{}, false, nil
	}
	ed, src := AlignByMap(r.last, apps)
	if ed == nil {
		return nil, Stats{}, false, nil // reordered: no edit describes it
	}
	pins := make([]*refPin, len(apps))
	inResolve := make([]bool, len(apps))
	var resolveIdx []int
	for i := range apps {
		if apps[i].Table == nil {
			return nil, Stats{}, false, nil
		}
		pin := r.pins[apps[i].ID]
		pins[i] = pin
		if pin != nil {
			f := apps[i].Table.Facts()
			if f.Hi == pin.tableHi && f.Lo == pin.tableLo {
				continue
			}
		}
		inResolve[i] = true
		resolveIdx = append(resolveIdx, i)
	}
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
	if 2*len(resolveIdx) > len(apps) {
		return nil, Stats{}, false, nil
	}

	residual := slices.Clone(capacity)
	for i := range apps {
		if inResolve[i] || pins[i].alloc.CoAllocated {
			continue
		}
		for k := range residual {
			residual[k] -= pins[i].alloc.Point.Vector.Cores(platform.KindID(k))
		}
	}
	for _, r := range residual {
		if r < 0 {
			return nil, Stats{}, false, nil
		}
	}

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

	out := make([]Allocation, len(apps))
	var changed []int
	var chosenSum, minSum float64
	coAllocated := 0
	ri := 0
	for i := range apps {
		if inResolve[i] {
			st := states[ri]
			out[i] = Allocation{ID: apps[i].ID, Point: *st.cands[st.chosen].op, CoAllocated: st.coalloc}
			chosenSum += st.cands[st.chosen].cost
			minSum += apps[i].Table.Facts().MinCost
			changed = append(changed, i)
			ri++
		} else {
			pin := pins[i]
			out[i] = pin.alloc
			chosenSum += pin.chosenCost
			minSum += pin.minCost
			if pin.seen != r.seq {
				changed = append(changed, i)
			}
		}
		if out[i].CoAllocated {
			coAllocated++
		}
	}
	slack := (1 + chosenSum) / (1 + minSum)
	if r.haveBase && slack > r.driftBound*r.baseSlack+1e-9 {
		return nil, Stats{}, false, nil
	}
	moved, err := a.placeCores(out, nil, src, true)
	if err != nil {
		return nil, Stats{}, false, nil
	}
	changed = mergeSorted(r.changedSlice[:0], changed, moved)
	r.changedSlice = changed[:0]

	r.seq++
	for i := range apps {
		if pin := pins[i]; pin != nil && !inResolve[i] {
			pin.alloc, pin.seen = out[i], r.seq
		}
	}
	for ri, i := range resolveIdx {
		st := states[ri]
		r.setPin(&apps[i], out[i], st.cands[st.chosen].cost)
	}
	r.prunePins(apps)
	r.last = out
	r.sinceFull++
	return out, Stats{
		Apps:        len(apps),
		Candidates:  cands,
		LambdaIters: iters,
		CoAllocated: coAllocated,
		Source:      SourceIncremental,
		Changed:     changed,
	}, true, nil
}

func (r *MapPins) rememberFullSolve(apps []AppInput, allocs []Allocation) {
	if len(allocs) != len(apps) {
		return
	}
	r.last = slices.Clone(allocs)
	r.seq++
	var chosenSum, minSum float64
	for i := range apps {
		cost := r.b.chosenCostOf(&apps[i], &allocs[i])
		chosenSum += cost
		minSum += r.setPin(&apps[i], allocs[i], cost).minCost
	}
	r.prunePins(apps)
	r.sinceFull = 0
	r.baseSlack = (1 + chosenSum) / (1 + minSum)
	r.haveBase = true
}

func (r *MapPins) setPin(app *AppInput, al Allocation, chosenCost float64) *refPin {
	f := app.Table.Facts()
	pin := r.pins[app.ID]
	if pin == nil {
		pin = &refPin{}
		r.pins[app.ID] = pin
	}
	*pin = refPin{tableHi: f.Hi, tableLo: f.Lo, alloc: al, chosenCost: chosenCost, minCost: f.MinCost, seen: r.seq}
	return pin
}

func (r *MapPins) prunePins(apps []AppInput) {
	if len(r.pins) <= 2*len(apps)+16 {
		return
	}
	keep := make(map[string]bool, len(apps))
	for i := range apps {
		keep[apps[i].ID] = true
	}
	for id := range r.pins {
		if !keep[id] {
			delete(r.pins, id)
		}
	}
}

// CheckChanged checks the Stats.Changed contract for one solve against the
// previous answer by ID (prev): whenever Changed is non-nil it is ascending,
// in range, free of repeats and lists every position whose allocation
// differs from the previous answer for its ID, or whose ID that answer did
// not contain.
func CheckChanged(inputs []AppInput, allocs []Allocation, stats Stats, prev map[string]Allocation) error {
	if stats.Changed == nil {
		return nil
	}
	if !slices.IsSorted(stats.Changed) {
		return fmt.Errorf("%s: Changed not ascending: %v", stats.Source, stats.Changed)
	}
	listed := make(map[int]bool, len(stats.Changed))
	for _, i := range stats.Changed {
		if i < 0 || i >= len(inputs) || listed[i] {
			return fmt.Errorf("%s: bad or repeated position %d in %v", stats.Source, i, stats.Changed)
		}
		listed[i] = true
	}
	for i, al := range allocs {
		was, known := prev[al.ID]
		if (!known || !equalAllocation(was, al)) && !listed[i] {
			return fmt.Errorf("%s: %s at position %d moved (known=%v) but Changed = %v",
				stats.Source, al.ID, i, known, stats.Changed)
		}
	}
	return nil
}
