package alloc

import (
	"errors"

	"github.com/harp-rm/harp/internal/platform"
)

// cursorAssign is the reference placement without a standing placement: the
// per-kind cursor assignment as it stood before placement kept standing
// grants. Isolated states take each kind's cores in input order; states
// repair deferred to co-allocation wrap round-robin over the kind from where
// the isolated cursor stopped.
func (a *Allocator) cursorAssign(states []*appState) ([]Allocation, error) {
	nextFree := make([]int, len(a.plat.Kinds))
	out := make([]Allocation, len(states))
	for si, st := range states {
		if st.chosen < 0 || st.chosen >= len(st.cands) {
			return nil, errors.New("alloc: internal: no chosen candidate")
		}
		cand := st.cands[st.chosen]
		out[si] = Allocation{ID: st.id, Point: *cand.op}
		if st.coalloc {
			continue
		}
		for kindIdx, counts := range cand.op.Vector.Counts {
			lo, hi := a.plat.CoreRange(platform.KindID(kindIdx))
			for tIdx, cores := range counts {
				for c := 0; c < cores; c++ {
					slot := nextFree[kindIdx]
					if slot >= hi-lo {
						return nil, &CapacityError{App: st.id, Kind: kindIdx, Granted: slot, Capacity: hi - lo}
					}
					out[si].Grants = append(out[si].Grants, CoreGrant{Core: lo + slot, Threads: tIdx + 1})
					nextFree[kindIdx]++
				}
			}
		}
	}
	for si, st := range states {
		if !st.coalloc {
			continue
		}
		out[si].CoAllocated = true
		for kindIdx, counts := range st.cands[st.chosen].op.Vector.Counts {
			lo, hi := a.plat.CoreRange(platform.KindID(kindIdx))
			for tIdx, cores := range counts {
				for c := 0; c < cores; c++ {
					out[si].Grants = append(out[si].Grants, CoreGrant{
						Core:    lo + nextFree[kindIdx]%(hi-lo),
						Threads: tIdx + 1,
					})
					nextFree[kindIdx]++
				}
			}
		}
	}
	return out, nil
}

// CursorPlacement runs the full pipeline's selection on inputs and returns
// the reference cursor placement of it. It reads nothing of the allocator's
// standing placement and changes none of it.
func (a *Allocator) CursorPlacement(inputs []AppInput) ([]Allocation, error) {
	capacity := make([]int, len(a.plat.Kinds))
	for k, kind := range a.plat.Kinds {
		capacity[k] = kind.Count
	}
	states := a.scratch.ensureStates(len(inputs))
	for i, in := range inputs {
		if err := a.buildState(states[i], in); err != nil {
			return nil, err
		}
	}
	a.selectPoints(states, capacity, nil)
	a.refine(states, capacity)
	return a.cursorAssign(states)
}
