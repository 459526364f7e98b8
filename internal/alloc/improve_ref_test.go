package alloc

import (
	"fmt"
	"math/rand"
	"testing"
)

// improveScan is the reference local search improve must reproduce move for
// move: the plain scans over every candidate pair, O(apps² × candidates²)
// per pairwise pass, exactly as they stood before improve learned to stop
// early and to look partners up.
func improveScan(states []*appState, capacity []int) {
	remaining := make([]int, len(capacity))
	copy(remaining, capacity)
	for _, st := range states {
		if st.chosen < 0 {
			continue
		}
		for k, d := range st.cands[st.chosen].demand {
			remaining[k] -= d
		}
	}
	for k := range remaining {
		if remaining[k] < 0 {
			return
		}
	}
	apply := func(st *appState, i int) {
		cur := st.cands[st.chosen]
		for k, d := range st.cands[i].demand {
			remaining[k] -= d - cur.demand[k]
		}
		st.chosen = i
	}
	singleMove := func() bool {
		moved := false
		for _, st := range states {
			cur := st.cands[st.chosen]
			for i, c := range st.cands {
				if i == st.chosen || c.cost >= cur.cost {
					continue
				}
				ok := true
				for k, d := range c.demand {
					if d-cur.demand[k] > remaining[k] {
						ok = false
						break
					}
				}
				if ok {
					apply(st, i)
					moved = true
					break
				}
			}
		}
		return moved
	}
	pairMove := func() bool {
		for ai, sa := range states {
			ca := sa.cands[sa.chosen]
			for i, na := range sa.cands {
				if i == sa.chosen || na.cost >= ca.cost {
					continue
				}
				for bi, sb := range states {
					if bi == ai {
						continue
					}
					cb := sb.cands[sb.chosen]
					for j, nb := range sb.cands {
						if j == sb.chosen {
							continue
						}
						if (na.cost-ca.cost)+(nb.cost-cb.cost) >= 0 {
							continue
						}
						ok := true
						for k := range remaining {
							delta := na.demand[k] - ca.demand[k] + nb.demand[k] - cb.demand[k]
							if delta > remaining[k] {
								ok = false
								break
							}
						}
						if ok {
							apply(sa, i)
							apply(sb, j)
							return true
						}
					}
				}
			}
		}
		return false
	}
	for {
		if singleMove() {
			continue
		}
		if len(states) > pairMoveMaxApps || !pairMove() {
			return
		}
	}
}

// ImproveAgainstScan builds the solver states for inputs against capacity
// (the platform's, or a residual as incremental re-solves pass), brings them
// to a feasible starting selection, and runs both improve and the reference
// scan from that same start. It returns the chosen candidate index per state
// after each. A nil rng starts from the production pipeline's selection
// (Lagrangian select, repair, rescue), co-allocation included; otherwise from
// a random feasible selection (see randomStart) far from any local optimum,
// so long move sequences get compared too.
func (a *Allocator) ImproveAgainstScan(inputs []AppInput, capacity []int, rng *rand.Rand) (got, want []int, err error) {
	states := a.scratch.ensureStates(len(inputs))
	for i, in := range inputs {
		if err := a.buildState(states[i], in); err != nil {
			return nil, nil, err
		}
	}
	if rng == nil {
		a.selectPoints(states, capacity, nil)
		a.repair(states, capacity)
		a.rescue(states, capacity)
	} else {
		states = randomStart(states, capacity, rng)
	}
	start := make([]int, len(states))
	for i, st := range states {
		start[i] = st.chosen
	}
	chosen := func() []int {
		out := make([]int, len(states))
		for i, st := range states {
			out[i] = st.chosen
			st.chosen = start[i]
		}
		return out
	}
	a.improve(states, capacity)
	got = chosen()
	improveScan(states, capacity)
	want = chosen()
	for i, st := range states {
		for _, c := range [2]int{got[i], want[i]} {
			if c < 0 || c >= len(st.cands) {
				return nil, nil, fmt.Errorf("state %d: chosen %d out of %d candidates", i, c, len(st.cands))
			}
		}
	}
	return got, want, nil
}

// randomStart gives every state in order a random candidate fitting the
// capacity left by the states before it, preferring large ones: starts that
// fill the capacity leave single moves little room, so pairwise exchanges get
// exercised. States nothing fits any more are dropped from the instance.
func randomStart(states []*appState, capacity []int, rng *rand.Rand) []*appState {
	remaining := append([]int(nil), capacity...)
	var fitting []int
	kept := states[:0:0]
	for _, st := range states {
		fitting = fitting[:0]
		for i := range st.cands {
			if fitsWithin(st.cands[i].demand, remaining) {
				fitting = append(fitting, i)
			}
		}
		if len(fitting) == 0 {
			continue
		}
		st.chosen = fitting[rng.Intn(len(fitting))]
		for range 2 {
			if alt := fitting[rng.Intn(len(fitting))]; cores(st.cands[alt].demand) > cores(st.cands[st.chosen].demand) {
				st.chosen = alt
			}
		}
		for k, d := range st.cands[st.chosen].demand {
			remaining[k] -= d
		}
		kept = append(kept, st)
	}
	return kept
}

func cores(demand []int) int {
	n := 0
	for _, d := range demand {
		n += d
	}
	return n
}

// TestFitGridIsFirstFit checks buildFit's grid cell by cell against its
// definition — for every demand limit within capacity, the lowest candidate
// index whose demand fits it, or none — on random candidate lists that
// include repeated demands and demands exceeding the capacity.
func TestFitGridIsFirstFit(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := make([]int, 1+r.Intn(4))
		for k := range capacity {
			capacity[k] = r.Intn(6)
		}
		st := &appState{cands: make([]candidate, 1+r.Intn(30))}
		for j := range st.cands {
			st.cands[j].demand = make([]int, len(capacity))
			for k := range capacity {
				st.cands[j].demand[k] = r.Intn(capacity[k] + 2)
			}
		}
		var s solverScratch
		cells := s.fitStrides(capacity)
		st.buildFit(capacity, s.stride, cells)
		limit := make([]int, len(capacity))
		for cell := range cells {
			for k, rest := range capacity {
				limit[k] = cell / s.stride[k] % (rest + 1)
			}
			want := fitNone
			for j := range st.cands {
				if fitsWithin(st.cands[j].demand, limit) {
					want = j
					break
				}
			}
			if got := int(st.grid[cellOf(limit, s.stride)]); got != want {
				t.Fatalf("seed %d: capacity %v, limit %v: grid says candidate %d, first fit is %d",
					seed, capacity, limit, got, want)
			}
		}
	}
}
