// Regression tests pinned from the correctness-harness bug crop (see
// DESIGN.md §6): demandKey cross-length collisions, the Pareto filter
// evicting usable points, the repair order trap, and the assignCores
// capacity guard. These exercise unexported internals, so they live in
// package alloc; the seed-replay forms live in differential_test.go.
package alloc

import (
	"errors"
	"fmt"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// demandKey packed elements without biasing, so a leading zero fell out of
// the key: [1 2] and [0 1 2] collided and the Lagrangian dedup could reuse a
// representative across different demand vectors.
func TestDemandKeyCrossLengthCollisionRegression(t *testing.T) {
	a, aok := demandKey([]int{1, 2})
	b, bok := demandKey([]int{0, 1, 2})
	if !aok || !bok {
		t.Fatal("small demand vectors reported unencodable")
	}
	if a == b {
		t.Fatalf("demandKey([1 2]) == demandKey([0 1 2]) == %#x", a)
	}
}

func TestDemandKeyInjectiveOnSmallDomain(t *testing.T) {
	seen := make(map[uint64][]int)
	var walk func(prefix []int)
	walk = func(prefix []int) {
		key, ok := demandKey(prefix)
		if !ok {
			t.Fatalf("demandKey(%v) unencodable", prefix)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("demandKey collision: %v and %v both pack to %#x", prev, prefix, key)
		}
		seen[key] = append([]int(nil), prefix...)
		if len(prefix) == 4 {
			return
		}
		for d := 0; d <= 3; d++ {
			walk(append(prefix, d))
		}
	}
	walk(nil)
}

func TestDemandKeyUnencodable(t *testing.T) {
	if _, ok := demandKey([]int{0, 0, 0, 0, 0}); ok {
		t.Error("5-kind vector reported encodable")
	}
	if _, ok := demandKey([]int{-1}); ok {
		t.Error("negative demand reported encodable")
	}
	if _, ok := demandKey([]int{1<<16 - 1}); ok {
		t.Error("demand at the bias bound reported encodable")
	}
	if _, ok := demandKey([]int{1<<16 - 2}); !ok {
		t.Error("demand just under the bias bound reported unencodable")
	}
}

// The Pareto objectives score low power and low demand as better, so a
// degenerate zero-power (or zero-vector) point dominated every honest point;
// filtered only after Pareto, it evicted the whole usable front and the app
// collapsed onto the free fallback core. Found by the differential oracle.
func TestDegeneratePointDoesNotEvictUsableFront(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	tbl := &opoint.Table{App: "x", Platform: p.Name}
	// The honest point: finite cost.
	tbl.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{2}, []int{0}), Utility: 8, Power: 5, Measured: true})
	// The poison point: dominates (higher utility, zero power, smaller
	// demand) but its cost guard makes it unusable.
	tbl.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{1}, []int{0}), Utility: 11, Power: 0, Measured: true})

	allocs, err := a.Allocate([]AppInput{{ID: "x", Table: tbl}})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 {
		t.Fatalf("allocations = %d, want 1", len(allocs))
	}
	if allocs[0].Point.Power != 5 {
		t.Fatalf("selected point %+v, want the honest 5 W point (fallback means the usable front was evicted)",
			allocs[0].Point)
	}
}

func testTwoKindPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := &platform.Platform{
		Name:            "rescue-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
		Kinds: []platform.CoreKind{
			{Name: "K0", Count: 3, SMT: 1, MaxFreqGHz: 3, MinFreqGHz: 0.5, IPC: 2, ActiveWatts: 2, IdleWatts: 0.2, SleepWatts: 0.02},
			{Name: "K1", Count: 1, SMT: 1, MaxFreqGHz: 2, MinFreqGHz: 0.5, IPC: 1, ActiveWatts: 1, IdleWatts: 0.1, SleepWatts: 0.01},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// repair walks applications in order without backtracking: app1's cheap
// 3-core point used to squat on all of K0, pushing app2 — which needs one K0
// core — into co-allocation even though switching app1 to its 1-core point
// makes both fit. rescue must lift app2 back into isolation. Pinned from
// differential seed 227.
func TestRescueLiftsDeferredAppRegression(t *testing.T) {
	p := testTwoKindPlatform(t)
	t1 := &opoint.Table{App: "app1", Platform: p.Name}
	t1.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{3}, []int{0}), Utility: 11, Power: 0.58, Measured: true})
	t1.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{1}, []int{0}), Utility: 3.2, Power: 4.6, Measured: true})
	t2 := &opoint.Table{App: "app2", Platform: p.Name}
	t2.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{1}, []int{1}), Utility: 6.7, Power: 5.25, Measured: true})
	inputs := []AppInput{{ID: "app1", Table: t1}, {ID: "app2", Table: t2}}

	allocs, err := newAllocator(t, p, WithMethod(Lagrangian)).Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range allocs {
		if al.CoAllocated {
			t.Fatalf("%s co-allocated although an isolated arrangement exists", al.ID)
		}
	}
	if Overlaps(allocs[0], allocs[1]) {
		t.Fatal("rescued allocations overlap")
	}
}

// improve must never accept a move that breaks spatial isolation: a cheaper
// candidate needing one more core of a kind with zero remaining capacity has
// to be rejected, however attractive its cost.
func TestImproveRespectsExhaustedKind(t *testing.T) {
	p := testTwoKindPlatform(t) // capacity [3,1]
	mk := func(v platform.ResourceVector, cost float64) candidate {
		return candidate{op: &opoint.OperatingPoint{Vector: v}, cost: cost, demand: v.CoreDemand()}
	}
	// st1 holds 2×K0 at cost 5; its cheaper alternative wants all 3×K0. st2
	// owns the third K0 core and has nowhere else to go, so K0 stays
	// exhausted and st1's move must be rejected despite its cost.
	st1 := &appState{id: "a", cands: []candidate{
		mk(vec(t, p, []int{3}, []int{0}), 1),
		mk(vec(t, p, []int{2}, []int{0}), 5),
	}, chosen: 1}
	st2 := &appState{id: "b", cands: []candidate{
		mk(vec(t, p, []int{1}, []int{0}), 4),
	}, chosen: 0}
	a := newAllocator(t, p)
	a.improve([]*appState{st1, st2}, []int{3, 1})
	if st1.chosen != 1 {
		t.Errorf("improve moved onto %d K0 cores with the kind exhausted by an unmovable neighbour",
			st1.cands[st1.chosen].demand[0])
	}

	// If the neighbour can vacate K0 first, the expansion becomes legal —
	// improve may take it, but the combined demand must stay within capacity.
	st2.cands = append(st2.cands, mk(vec(t, p, []int{0}, []int{1}), 2))
	a.improve([]*appState{st1, st2}, []int{3, 1})
	for k, cap := range []int{3, 1} {
		total := st1.cands[st1.chosen].demand[k] + st2.cands[st2.chosen].demand[k]
		if total > cap {
			t.Errorf("kind %d over capacity after improve: %d > %d", k, total, cap)
		}
	}
}

// assignCores must refuse to hand out cores past a kind's capacity for a
// state repair accounted as fitting — that is an internal invariant breach,
// surfaced as *CapacityError, never a silent double grant.
func TestAssignCoresCapacityError(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	over := platform.NewResourceVector(p)
	over.Counts[0][0] = 5 // 5 big cores on a 4-big-core platform
	corrupt := &appState{id: "x", cands: []candidate{{
		op:     &opoint.OperatingPoint{Vector: over},
		demand: over.CoreDemand(),
	}}, chosen: 0}

	_, err := a.assignCores([]*appState{corrupt}, nil)
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("assignCores = %v, want *CapacityError", err)
	}
	if capErr.App != "x" || capErr.Kind != 0 || capErr.Capacity != 4 {
		t.Errorf("CapacityError = %+v, want app x, kind 0, capacity 4", capErr)
	}
	if msg := capErr.Error(); msg == "" || !errors.As(fmt.Errorf("wrap: %w", err), &capErr) {
		t.Error("CapacityError does not survive wrapping")
	}

	// The same over-demand explicitly deferred to co-allocation is legal and
	// wraps around the capacity instead.
	corrupt.coalloc = true
	allocs, err := a.assignCores([]*appState{corrupt}, nil)
	if err != nil {
		t.Fatalf("co-allocated over-demand rejected: %v", err)
	}
	if !allocs[0].CoAllocated || len(allocs[0].Grants) != 5 {
		t.Fatalf("co-allocated wrap = %+v, want 5 wrapped grants", allocs[0])
	}
	for _, g := range allocs[0].Grants {
		if g.Core < 0 || g.Core >= 4 {
			t.Errorf("wrapped grant on core %d, want a big core [0,4)", g.Core)
		}
	}
}
