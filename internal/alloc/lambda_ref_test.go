package alloc

import (
	"math"
	"slices"
)

// LambdaResult is what the subgradient iteration leaves behind: every
// application's relaxed choice, the final λ as bits and the iteration count.
type LambdaResult struct {
	Chosen []int
	Lambda []uint64
	Iters  int
}

// LambdaCase configures one LambdaAgainstScan comparison.
type LambdaCase struct {
	// Warm seeds λ₀ (nil: cold zeros).
	Warm []float64
	// CutAt, when positive, installs an overBudget probe that reports the
	// deadline from iteration CutAt on.
	CutAt int
}

// LambdaAgainstScan builds the solver states for inputs and runs the grouped
// λ loop and the per-application reference scan on them against capacity.
func (a *Allocator) LambdaAgainstScan(inputs []AppInput, capacity []int, c LambdaCase) (got, want LambdaResult, err error) {
	states := a.scratch.ensureStates(len(inputs))
	for i, in := range inputs {
		if err := a.buildState(states[i], in); err != nil {
			return got, want, err
		}
	}
	defer a.SetOverBudget(a.overBudget)
	run := func(solve func([]*appState, []int, []float64) int) LambdaResult {
		calls := 0
		a.overBudget = nil
		if c.CutAt > 0 {
			a.overBudget = func() bool { calls++; return calls >= c.CutAt }
		}
		for _, st := range states {
			st.chosen = -1
		}
		r := LambdaResult{Iters: solve(states, capacity, c.Warm)}
		for _, st := range states {
			r.Chosen = append(r.Chosen, st.chosen)
		}
		for _, l := range a.scratch.lambda {
			r.Lambda = append(r.Lambda, math.Float64bits(l))
		}
		return r
	}
	got = run(a.lagrangianSelect)
	want = run(a.lagrangianSelectScan)
	return got, want, nil
}

// Equal reports whether two results agree exactly.
func (r LambdaResult) Equal(o LambdaResult) bool {
	return r.Iters == o.Iters && slices.Equal(r.Chosen, o.Chosen) && slices.Equal(r.Lambda, o.Lambda)
}

// lagrangianSelectScan is the reference the grouped λ loop must reproduce:
// the iteration as it stood before it grouped states by candidate list,
// minimising every application separately in every iteration. It leaves the
// final λ in the scratch and the choices in the states.
func (a *Allocator) lagrangianSelectScan(states []*appState, capacity []int, warm []float64) int {
	nk := len(capacity)
	s := &a.scratch
	s.lambda = resize(s.lambda, nk)
	lambda := s.lambda
	if warm != nil {
		copy(lambda, warm)
	} else {
		clear(lambda)
	}
	prev := make([]float64, nk)

	var costSum, coreSum float64
	for _, st := range states {
		for i := range st.cands {
			costSum += st.cands[i].cost
			for _, d := range st.cands[i].demand {
				coreSum += float64(d)
			}
		}
	}
	scale := 1.0
	if coreSum > 0 && costSum > 0 {
		scale = costSum / coreSum
	}

	reps := make([][]lagRep, len(states))
	for si, st := range states {
		seen := map[uint64]bool{}
		for i := range st.cands {
			c := &st.cands[i]
			if key, ok := demandKey(c.demand); ok {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			fd := make([]float64, len(c.demand))
			for k, d := range c.demand {
				fd[k] = float64(d)
			}
			reps[si] = append(reps[si], lagRep{idx: i, cost: c.cost, demand: fd})
		}
	}

	demand := make([]int, nk)
	iters := lagrangianIters
	for it := 0; it < lagrangianIters; it++ {
		if it > 0 && a.overBudget != nil && a.overBudget() {
			iters = it
			break
		}
		clear(demand)
		for si, st := range states {
			best := 0
			bestVal := math.Inf(1)
			for _, r := range reps[si] {
				v := r.cost
				for k, d := range r.demand {
					v += lambda[k] * d
				}
				if v < bestVal {
					bestVal = v
					best = r.idx
				}
			}
			st.chosen = best
			for k, d := range st.cands[best].demand {
				demand[k] += d
			}
		}
		copy(prev, lambda)
		step := scale * 2 / float64(it+2)
		for k := range lambda {
			denom := float64(capacity[k])
			if denom <= 0 {
				denom = 1
			}
			over := float64(demand[k]-capacity[k]) / denom
			lambda[k] = math.Max(0, lambda[k]+step*over)
		}
		if floatsEqual(lambda, prev) {
			iters = it + 1
			break
		}
	}
	return iters
}
