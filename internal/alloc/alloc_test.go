package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

func vec(t *testing.T, p *platform.Platform, perKind ...[]int) platform.ResourceVector {
	t.Helper()
	rv, err := platform.VectorOf(p, perKind...)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func newAllocator(t *testing.T, p *platform.Platform, opts ...Option) *Allocator {
	t.Helper()
	a, err := New(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tableFor builds a full measured table from the workload model.
func tableFor(p *platform.Platform, prof *workload.Profile) *opoint.Table {
	tbl := &opoint.Table{App: prof.Name, Platform: p.Name}
	for _, rv := range platform.EnumerateVectors(p, 0) {
		ev := workload.EvaluateVector(p, prof, rv)
		tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts, Measured: true})
	}
	return tbl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(platform.OdroidXU3(), WithMethod(Method(9))); err == nil {
		t.Error("bad method accepted")
	}
	bad := platform.OdroidXU3()
	bad.Kinds = nil
	if _, err := New(bad); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestAllocateEmpty(t *testing.T) {
	a := newAllocator(t, platform.OdroidXU3())
	got, err := a.Allocate(nil)
	if err != nil || got != nil {
		t.Fatalf("Allocate(nil) = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestAllocateRejectsNilTable(t *testing.T) {
	a := newAllocator(t, platform.OdroidXU3())
	if _, err := a.Allocate([]AppInput{{ID: "x"}}); err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestSingleAppGetsMinCostPoint(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	tbl := &opoint.Table{App: "x", Platform: p.Name}
	// Cheapest point: equal utility, lowest power.
	tbl.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{2}, []int{0}), Utility: 10, Power: 4, Measured: true})
	tbl.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{0}, []int{2}), Utility: 10, Power: 1, Measured: true})

	allocs, err := a.Allocate([]AppInput{{ID: "x", Table: tbl}})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 {
		t.Fatalf("allocations = %d, want 1", len(allocs))
	}
	got := allocs[0]
	if got.Point.Power != 1 {
		t.Errorf("selected point power = %g, want the 1 W point", got.Point.Power)
	}
	if got.CoAllocated {
		t.Error("single app co-allocated")
	}
	if len(got.Grants) != 2 {
		t.Fatalf("grants = %v, want 2 LITTLE cores", got.Grants)
	}
	for _, g := range got.Grants {
		if g.Core < 4 || g.Core > 7 {
			t.Errorf("grant %+v outside LITTLE core range [4,8)", g)
		}
		if g.Threads != 1 {
			t.Errorf("grant threads = %d, want 1", g.Threads)
		}
	}
}

func TestAllocationsAreSpatiallyIsolated(t *testing.T) {
	p := platform.RaptorLake()
	a := newAllocator(t, p)
	var inputs []AppInput
	for _, name := range []string{"ep.C", "mg.C", "ft.C"} {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, AppInput{ID: name, Table: tableFor(p, prof)})
	}
	allocs, err := a.Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 3 {
		t.Fatalf("allocations = %d, want 3", len(allocs))
	}
	for i := range allocs {
		if allocs[i].CoAllocated {
			t.Errorf("%s co-allocated on a roomy machine", allocs[i].ID)
		}
		if len(allocs[i].Grants) == 0 {
			t.Errorf("%s received no cores", allocs[i].ID)
		}
		for j := i + 1; j < len(allocs); j++ {
			if Overlaps(allocs[i], allocs[j]) {
				t.Errorf("allocations %s and %s overlap", allocs[i].ID, allocs[j].ID)
			}
		}
	}
}

func TestCoAllocationWhenOverloaded(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	// Ten apps that each insist on the full machine.
	full := vec(t, p, []int{4}, []int{4})
	var inputs []AppInput
	for i := 0; i < 10; i++ {
		tbl := &opoint.Table{App: "x", Platform: p.Name}
		tbl.Upsert(opoint.OperatingPoint{Vector: full, Utility: 10, Power: 5, Measured: true})
		inputs = append(inputs, AppInput{ID: string(rune('a' + i)), Table: tbl})
	}
	allocs, err := a.Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var coallocated int
	for _, al := range allocs {
		if al.CoAllocated {
			coallocated++
		}
		if len(al.Grants) == 0 {
			t.Errorf("%s received no cores even under co-allocation", al.ID)
		}
	}
	if coallocated == 0 {
		t.Fatal("no app marked co-allocated on a 10×-overloaded machine")
	}
}

// The crafted instance where greedy paints itself into a corner: the first
// app grabs all big cores for a marginal gain, leaving the second app
// nothing; the Lagrangian solver shares.
func TestLagrangianBeatsGreedy(t *testing.T) {
	p := platform.OdroidXU3()

	t1 := &opoint.Table{App: "a", Platform: p.Name}
	t1.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{4}, []int{0}), Utility: 10, Power: 1, Measured: true})
	t1.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{2}, []int{0}), Utility: 10, Power: 1.2, Measured: true})
	t2 := &opoint.Table{App: "b", Platform: p.Name}
	t2.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{4}, []int{0}), Utility: 10, Power: 10, Measured: true})
	t2.Upsert(opoint.OperatingPoint{Vector: vec(t, p, []int{2}, []int{0}), Utility: 10, Power: 10.5, Measured: true})
	inputs := []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}}

	greedy, err := newAllocator(t, p, WithMethod(Greedy)).Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	lagr, err := newAllocator(t, p, WithMethod(Lagrangian)).Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	greedyCo := greedy[0].CoAllocated || greedy[1].CoAllocated
	lagrCo := lagr[0].CoAllocated || lagr[1].CoAllocated
	if !greedyCo {
		t.Error("greedy unexpectedly found the feasible split")
	}
	if lagrCo {
		t.Error("lagrangian failed to find the feasible 2+2 split")
	}
	if Overlaps(lagr[0], lagr[1]) {
		t.Error("lagrangian allocations overlap")
	}
}

func TestFallbackForEmptyTable(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	allocs, err := a.Allocate([]AppInput{{ID: "fresh", Table: &opoint.Table{App: "fresh"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || len(allocs[0].Grants) != 1 {
		t.Fatalf("fallback allocation = %+v, want one core", allocs)
	}
	// The fallback core is of the most efficient kind (LITTLE).
	if g := allocs[0].Grants[0]; g.Core < 4 {
		t.Errorf("fallback core %d, want a LITTLE core (≥ 4)", g.Core)
	}
}

func TestMethodString(t *testing.T) {
	if Lagrangian.String() != "lagrangian" || Greedy.String() != "greedy" {
		t.Error("unexpected method names")
	}
	if Method(9).String() != "method(9)" {
		t.Error("unexpected unknown-method string")
	}
}

// Property: for random app mixes, every allocation is within core ranges,
// non-co-allocated allocations never overlap, and per-kind totals of
// isolated allocations never exceed capacity.
func TestAllocatorInvariantsProperty(t *testing.T) {
	p := platform.OdroidXU3()
	vecs := platform.EnumerateVectors(p, 0)
	a := newAllocator(t, p)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nApps := 1 + r.Intn(6)
		inputs := make([]AppInput, nApps)
		for i := range inputs {
			tbl := &opoint.Table{App: "x", Platform: p.Name}
			nPts := 1 + r.Intn(8)
			for j := 0; j < nPts; j++ {
				rv := vecs[r.Intn(len(vecs))]
				tbl.Upsert(opoint.OperatingPoint{
					Vector:   rv,
					Utility:  r.Float64() * 20,
					Power:    r.Float64() * 8,
					Measured: true,
				})
			}
			inputs[i] = AppInput{ID: string(rune('a' + i)), Table: tbl}
		}
		allocs, err := a.Allocate(inputs)
		if err != nil || len(allocs) != nApps {
			return false
		}
		used := make([]int, len(p.Kinds))
		for i, al := range allocs {
			for _, g := range al.Grants {
				kind, err := p.KindOf(g.Core)
				if err != nil {
					return false
				}
				if g.Threads < 1 || g.Threads > p.Kinds[kind].SMT {
					return false
				}
			}
			if al.CoAllocated {
				continue
			}
			for _, d := range al.Point.Vector.CoreDemand() {
				_ = d
			}
			for k, d := range al.Point.Vector.CoreDemand() {
				used[k] += d
			}
			for j := i + 1; j < len(allocs); j++ {
				if !allocs[j].CoAllocated && Overlaps(al, allocs[j]) {
					return false
				}
			}
		}
		for k, u := range used {
			if u > p.Kinds[k].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The Lagrangian solver must never produce a worse feasible outcome than the
// greedy baseline on instances both can satisfy without co-allocation.
func TestLagrangianNoWorseThanGreedyCost(t *testing.T) {
	p := platform.RaptorLake()
	apps := []string{"ep.C", "mg.C", "cg.C", "ft.C"}
	var inputs []AppInput
	for _, name := range apps {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, AppInput{ID: name, Table: tableFor(p, prof)})
	}
	lagr, err := newAllocator(t, p, WithMethod(Lagrangian)).Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := newAllocator(t, p, WithMethod(Greedy)).Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	lc := TotalCost(lagr, inputs)
	gc := TotalCost(greedy, inputs)
	if lc > gc*1.05 {
		t.Errorf("lagrangian cost %.2f noticeably above greedy %.2f", lc, gc)
	}
}

// Overlaps must not let a later grant on the same core shadow an earlier
// one: an allocation that wraps around (co-allocation) can hold several
// grants for one core, and the per-core occupancy is the maximum over them.
func TestOverlapsMultipleGrantsSameCore(t *testing.T) {
	a := Allocation{ID: "a", Grants: []CoreGrant{
		{Core: 3, Threads: 2},
		{Core: 3, Threads: 0}, // must not erase the occupancy above
	}}
	b := Allocation{ID: "b", Grants: []CoreGrant{{Core: 3, Threads: 1}}}
	if !Overlaps(a, b) {
		t.Error("overlap on core 3 missed when a later zero-thread grant shadows it")
	}
	if !Overlaps(b, a) {
		t.Error("Overlaps not symmetric for the shadowed-grant case")
	}
	// Zero-thread grants occupy nothing: no overlap in either direction.
	c := Allocation{ID: "c", Grants: []CoreGrant{{Core: 3, Threads: 0}}}
	if Overlaps(b, c) || Overlaps(c, b) {
		t.Error("zero-thread grant reported as overlapping")
	}
	// Disjoint cores never overlap.
	d := Allocation{ID: "d", Grants: []CoreGrant{{Core: 4, Threads: 2}}}
	if Overlaps(a, d) {
		t.Error("disjoint cores reported as overlapping")
	}
}
