package opoint

import (
	"reflect"
	"sync"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// Every mutator must leave the table's facts equal to a fresh computation
// over the new content — a new hash, front and v* — whether the mutation
// went through Upsert/Sort, an in-place edit followed by Invalidate, or a
// direct append the length check catches.
func TestFactsFollowEveryMutator(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x", Platform: p.Name}
	// Two P-core points with equal objectives (one core on one or on two
	// hardware threads): the front keeps whichever comes first, so a Sort
	// that swaps them changes the front without changing v*.
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 10, Power: 5})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 1}, []int{0}), Utility: 10, Power: 5})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{1}), Utility: 4, Power: 1})

	prev, prevFront := tbl.Facts(), tbl.ParetoPoints()
	if again := tbl.Facts(); again != prev || &tbl.ParetoPoints()[0] != &prevFront[0] {
		t.Fatal("facts recomputed without a mutation")
	}
	steps := []struct {
		name      string
		sameVStar bool // the mutation cannot move v* (a reordering)
		mutate    func()
	}{
		{"Upsert new", false, func() {
			tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{2, 0}, []int{0}), Utility: 20, Power: 8})
		}},
		{"Upsert replace", false, func() {
			tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{2, 0}, []int{0}), Utility: 30, Power: 8})
		}},
		{"Sort", true, tbl.Sort},
		{"in-place edit + Invalidate", false, func() {
			tbl.Points[0].Utility = 50
			tbl.Invalidate()
		}},
		{"direct append", false, func() {
			tbl.Points = append(tbl.Points, OperatingPoint{Vector: vec(t, p, []int{0, 1}, []int{2}), Utility: 60, Power: 9})
		}},
	}
	for _, st := range steps {
		st.mutate()
		got, front := tbl.Facts(), tbl.ParetoPoints()
		fresh := tbl.Clone()
		want, wantFront := fresh.Facts(), fresh.ParetoPoints()
		if got.Hi != want.Hi || got.Lo != want.Lo || got.VStar != want.VStar ||
			got.MinCost != want.MinCost || got.Footprint != want.Footprint ||
			!reflect.DeepEqual(front, wantFront) {
			t.Fatalf("%s: facts %+v front %v, fresh computation %+v front %v", st.name, got, front, want, wantFront)
		}
		if got.Hi == prev.Hi && got.Lo == prev.Lo {
			t.Errorf("%s: content hash did not change", st.name)
		}
		if reflect.DeepEqual(front, prevFront) {
			t.Errorf("%s: Pareto front did not change: %v", st.name, front)
		}
		if (got.VStar == prev.VStar) != st.sameVStar {
			t.Errorf("%s: v* %g → %g", st.name, prev.VStar, got.VStar)
		}
		if tbl.MaxUtility() != got.VStar {
			t.Errorf("%s: MaxUtility disagrees with Facts", st.name)
		}
		prev, prevFront = got, front
	}
}

// Facts of a table whose every point is unusable carry the fallback
// markers, and the footprint covers exactly the usable points' kinds.
func TestFactsUsability(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x"}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{2}), Utility: 8, Power: 0})
	if f := tbl.Facts(); f.MinCost != 0 || f.Footprint != 0 {
		t.Fatalf("no usable point: MinCost %g, Footprint %b; want 0, 0", f.MinCost, f.Footprint)
	}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 4, Power: 2})
	f := tbl.Facts()
	if want := uint64(1 << 0); f.Footprint != want {
		t.Errorf("Footprint = %b, want %b (the zero-power E point is unusable)", f.Footprint, want)
	}
	if want := tbl.Points[1].Cost(8); f.MinCost != want {
		t.Errorf("MinCost = %g, want %g", f.MinCost, want)
	}
}

// Concurrent first readers of a fresh table — the shared offline DSE tables
// parallel experiment units read — must agree, without a lock. Run under
// -race (make check).
func TestFactsConcurrentFirstRead(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "shared", Platform: p.Name}
	for _, rv := range platform.EnumerateVectors(p, 2) {
		tbl.Upsert(OperatingPoint{Vector: rv, Utility: float64(rv.Threads()) + 1, Power: float64(rv.TotalCores()) + 0.5})
	}
	tbl.Invalidate()
	const readers = 8
	got := make([]*Facts, readers)
	fronts := make([][]OperatingPoint, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if err := tbl.Validate(p); err != nil {
				t.Error(err)
			}
			fronts[i] = tbl.ParetoPoints()
			got[i] = tbl.Facts()
			if tbl.MaxUtility() != got[i].VStar {
				t.Error("MaxUtility disagrees with Facts")
			}
		}()
	}
	start.Done()
	done.Wait()
	for i, f := range got[1:] {
		if f.Hi != got[0].Hi || f.Lo != got[0].Lo || f.VStar != got[0].VStar ||
			f.MinCost != got[0].MinCost || f.Footprint != got[0].Footprint ||
			!reflect.DeepEqual(fronts[i+1], fronts[0]) {
			t.Fatalf("reader %d computed different facts", i+1)
		}
	}
}

// Regression: the validation memo was keyed by platform name, and two
// generated platforms may share a name while their shapes differ (check's
// "gen-1k" platforms vary core count and SMT). A table validated against one
// must still be checked against the other.
func TestValidateMemoIsPerPlatform(t *testing.T) {
	smt2 := &platform.Platform{Name: "gen-1k", Kinds: []platform.CoreKind{{Name: "k0", Count: 4, SMT: 2}}}
	smt1 := &platform.Platform{Name: "gen-1k", Kinds: []platform.CoreKind{{Name: "k0", Count: 4, SMT: 1}}}
	tbl := &Table{App: "x", Points: []OperatingPoint{
		{Vector: platform.ResourceVector{Counts: [][]int{{1, 0}}}, Utility: 1, Power: 1},
	}}
	if err := tbl.Validate(smt2); err != nil {
		t.Fatalf("Validate(SMT 2): %v", err)
	}
	if err := tbl.Clone().Validate(smt1); err == nil {
		t.Fatal("a fresh table with 2 SMT slots validated against an SMT 1 platform")
	}
	if err := tbl.Validate(smt1); err == nil {
		t.Fatal("the SMT 2 validation vouched for an SMT 1 platform of the same name")
	}

	// A mutation clears the memo: a now-invalid point is caught against the
	// platform the table last validated on.
	if err := tbl.Validate(smt2); err != nil {
		t.Fatal(err)
	}
	tbl.Points[0].Power = -1
	tbl.Invalidate()
	if err := tbl.Validate(smt2); err == nil {
		t.Fatal("Validate served a clean result for an edited, invalidated table")
	}
}
