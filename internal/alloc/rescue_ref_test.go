package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// RescueCoverage counts what the reference searches of RescueAgainstScan
// did, so a differential test can assert it reached the cases that matter:
// searches that ran out of budget, those among them that had found a lift
// before running out, and lifts in all.
type RescueCoverage struct {
	Searches, Exhausted, ExhaustedLifted, Lifts int
}

// Add accumulates o into c.
func (c *RescueCoverage) Add(o RescueCoverage) {
	c.Searches += o.Searches
	c.Exhausted += o.Exhausted
	c.ExhaustedLifted += o.ExhaustedLifted
	c.Lifts += o.Lifts
}

// RescueState is one application's selection after rescue.
type RescueState struct {
	Chosen      int
	CoAllocated bool
}

// rescueScan is the reference search rescue must reproduce: the plain
// budgeted depth-first search over every node, exactly as it stood before
// rescue learned to skip subtrees in which nothing fits. It returns what its
// searches did.
func rescueScan(states []*appState, capacity []int) RescueCoverage {
	var cov RescueCoverage
	deferred := 0
	for _, st := range states {
		if st.coalloc {
			deferred++
		}
	}
	if deferred == 0 || deferred > rescueMaxDeferred {
		return cov
	}
	nk := len(capacity)
	remaining := make([]int, nk)
	recompute := func() {
		copy(remaining, capacity)
		for _, st := range states {
			if st.coalloc || st.chosen < 0 {
				continue
			}
			for k, d := range st.cands[st.chosen].demand {
				remaining[k] -= d
			}
		}
	}
	type switchTo struct {
		app  *appState
		cand int
	}
	for changed := true; changed; {
		changed = false
		for _, st := range states {
			if !st.coalloc {
				continue
			}
			recompute()
			var others []*appState
			for _, o := range states {
				if o != st && !o.coalloc && o.chosen >= 0 {
					others = append(others, o)
				}
			}
			bestCost := math.Inf(1)
			bestCand := -1
			var bestSw, curSw []switchTo
			budget := rescueBudget
			need := make([]int, nk)
			var dfs func(oi, switches, ci int, delta float64)
			dfs = func(oi, switches, ci int, delta float64) {
				if budget--; budget < 0 {
					return
				}
				fits := true
				for _, n := range need {
					if n > 0 {
						fits = false
						break
					}
				}
				if fits {
					if total := st.cands[ci].cost + delta; total < bestCost {
						bestCost, bestCand = total, ci
						bestSw = append(bestSw[:0], curSw...)
					}
					return
				}
				if oi >= len(others) || switches >= rescueMaxSwitches {
					return
				}
				dfs(oi+1, switches, ci, delta) // leave others[oi] as is
				o := others[oi]
				cur := &o.cands[o.chosen]
				for alt := range o.cands {
					if alt == o.chosen {
						continue
					}
					oc := &o.cands[alt]
					for k := 0; k < nk; k++ {
						need[k] += oc.demand[k] - cur.demand[k]
					}
					curSw = append(curSw, switchTo{o, alt})
					dfs(oi+1, switches+1, ci, delta+oc.cost-cur.cost)
					curSw = curSw[:len(curSw)-1]
					for k := 0; k < nk; k++ {
						need[k] -= oc.demand[k] - cur.demand[k]
					}
				}
			}
			for ci := range st.cands {
				for k, d := range st.cands[ci].demand {
					need[k] = d - remaining[k]
				}
				dfs(0, 0, ci, 0)
			}
			cov.Searches++
			if budget < 0 {
				cov.Exhausted++
				if bestCand >= 0 {
					cov.ExhaustedLifted++
				}
			}
			if bestCand >= 0 {
				cov.Lifts++
				st.chosen = bestCand
				st.coalloc = false
				for _, s := range bestSw {
					s.app.chosen = s.cand
				}
				changed = true
			}
		}
	}
	return cov
}

// RescueAgainstScan builds the solver states for inputs against capacity
// (the platform's, or a residual as incremental re-solves pass), runs the
// production selection and repair, and then rescue and the reference scan
// from that same start. It returns every state's selection after each, and
// what the reference searches did.
func (a *Allocator) RescueAgainstScan(inputs []AppInput, capacity []int) (got, want []RescueState, cov RescueCoverage, err error) {
	states := a.scratch.ensureStates(len(inputs))
	for i, in := range inputs {
		if err := a.buildState(states[i], in); err != nil {
			return nil, nil, cov, err
		}
	}
	a.selectPoints(states, capacity, nil)
	a.repair(states, capacity)
	start := make([]RescueState, len(states))
	for i, st := range states {
		start[i] = RescueState{st.chosen, st.coalloc}
	}
	result := func() []RescueState {
		out := make([]RescueState, len(states))
		for i, st := range states {
			out[i] = RescueState{st.chosen, st.coalloc}
			st.chosen, st.coalloc = start[i].Chosen, start[i].CoAllocated
		}
		return out
	}
	a.rescue(states, capacity)
	got = result()
	cov = rescueScan(states, capacity)
	want = result()
	return got, want, cov, nil
}

// plainNodes counts the nodes the plain, unbudgeted search visits for
// candidate ci of the deferred application r was prepared for, and reports
// whether any of them fits.
func plainNodes(r *rescueSearch, ci int) (nodes int, fit bool) {
	need := make([]int, len(r.remaining))
	for k, d := range r.st.cands[ci].demand {
		need[k] = d - r.remaining[k]
	}
	var visit func(oi, switches int)
	visit = func(oi, switches int) {
		nodes++
		if !fit {
			fit = true
			for _, n := range need {
				fit = fit && n <= 0
			}
			if fit {
				return
			}
		}
		if oi >= len(r.others) || switches >= rescueMaxSwitches {
			return
		}
		visit(oi+1, switches)
		o := r.others[oi]
		cur := o.cands[o.chosen].demand
		for alt := range o.cands {
			if alt == o.chosen {
				continue
			}
			for k, d := range o.cands[alt].demand {
				need[k] += d - cur[k]
			}
			visit(oi+1, switches+1)
			for k, d := range o.cands[alt].demand {
				need[k] -= d - cur[k]
			}
		}
	}
	visit(0, 0)
	return nodes, fit
}

// TestRescueSubtreeSizes checks the node count rescue charges for a search
// in which nothing fits, N(0, 0), against the nodes the plain search
// actually visits there, on small random instances whose deferred
// applications cannot be lifted by any candidate. Counts past the budget
// are capped at rescueBudget+1 by design, so the instances stay below it.
func TestRescueSubtreeSizes(t *testing.T) {
	checked, largest := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		plat := testTwoKindPlatform(t)
		if seed%2 == 0 {
			plat = platform.OdroidXU3()
		}
		vectors := platform.EnumerateVectors(plat, 0)
		inputs := make([]AppInput, 2+r.Intn(11))
		for i := range inputs {
			tbl := &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: plat.Name}
			for range 1 + r.Intn(30) {
				tbl.Upsert(opoint.OperatingPoint{
					Vector:  vectors[r.Intn(len(vectors))],
					Utility: 1 + r.Float64()*10,
					Power:   0.5 + r.Float64()*20,
				})
			}
			inputs[i] = AppInput{ID: tbl.App, Table: tbl}
		}
		capacity := []int{r.Intn(plat.Kinds[0].Count + 1), r.Intn(plat.Kinds[1].Count + 1)}
		a := newAllocator(t, plat)
		states := a.scratch.ensureStates(len(inputs))
		for i, in := range inputs {
			if err := a.buildState(states[i], in); err != nil {
				t.Fatal(err)
			}
		}
		a.selectPoints(states, capacity, nil)
		a.repair(states, capacity)
		for _, st := range states {
			if !st.coalloc {
				continue
			}
			rs := &a.scratch.rescue
			rs.prepare(st, states, capacity)
			for ci := range st.cands {
				nodes, fit := plainNodes(rs, ci)
				if fit || nodes > rescueBudget {
					continue
				}
				if nodes != rs.size[0] {
					t.Fatalf("seed %d: capacity %v, candidate %d of %q: the plain search visits %d nodes, rescue charges %d",
						seed, capacity, ci, st.id, nodes, rs.size[0])
				}
				checked++
				largest = max(largest, nodes)
			}
		}
	}
	t.Logf("%d searches checked, the largest visiting %d nodes", checked, largest)
	if checked < 100 || largest < 1000 {
		t.Fatalf("%d searches in which nothing fits checked, the largest visiting %d nodes: want at least 100, one of them past 1000 nodes",
			checked, largest)
	}
}
