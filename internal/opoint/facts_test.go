package opoint

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
			got.MinCost != want.MinCost ||
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

// Facts of a table whose every point is unusable carry the fallback marker,
// and MinCost counts only usable points.
func TestFactsUsability(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x"}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{2}), Utility: 8, Power: 0})
	if f := tbl.Facts(); f.MinCost != 0 {
		t.Fatalf("no usable point: MinCost %g, want 0", f.MinCost)
	}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 4, Power: 2})
	if want, f := tbl.Points[1].Cost(8), tbl.Facts(); f.MinCost != want {
		t.Errorf("MinCost = %g, want %g (the zero-power E point is unusable)", f.MinCost, want)
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
			f.MinCost != got[0].MinCost ||
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

// TestParetoPointsIsUsableFront pins what the memoised front is: runtimeFront
// of the points usable at v*, permuted into solver order — by cost at v*,
// then by vector key, then in runtimeFront's order. A zero-power point and a
// zero-vector point would dominate honest points on the unfiltered front;
// the memo drops them first. On a fully usable table it is runtimeFront of
// every point, reordered.
func TestParetoPointsIsUsableFront(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x", Platform: p.Name}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 10, Power: 5})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{2, 0}, []int{0}), Utility: 18, Power: 9})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{1}), Utility: 4, Power: 1})
	if got, want := tbl.ParetoPoints(), inSolverOrder(runtimeFront(tbl.Points, nil, 0), tbl.MaxUtility()); !reflect.DeepEqual(got, want) {
		t.Fatalf("fully usable table: memo %v, runtimeFront in solver order %v", got, want)
	}

	usable := tbl.Points
	degenerate := tbl.Clone()
	degenerate.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{2}), Utility: 6, Power: 0})
	degenerate.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{0}), Utility: 20, Power: 1})
	want := inSolverOrder(runtimeFront(usable, nil, 0), degenerate.MaxUtility())
	if got := degenerate.ParetoPoints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo %v, want the usable front %v", got, want)
	}
	if reflect.DeepEqual(runtimeFront(degenerate.Points, nil, 0), runtimeFront(usable, nil, 0)) {
		t.Fatal("the degenerate points leave the unfiltered front as it is: the case tests nothing")
	}

	// A table whose runtimeFront order (utility descending) is not its
	// solver order: the cheapest point has middling utility, and the two
	// points tied at cost 20 sort by key, where "0,0|10" < "0,0|2".
	y := OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{2}), Utility: 20, Power: 20}
	z := OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 12, Power: 4}
	x := OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{10}), Utility: 10, Power: 5}
	ordered := &Table{App: "y", Platform: p.Name, Points: []OperatingPoint{y, z, x}}
	if got, want := runtimeFront(ordered.Points, nil, 0), []OperatingPoint{y, z, x}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runtimeFront %v, want utility order %v", got, want)
	}
	if got, want := ordered.ParetoPoints(), []OperatingPoint{z, x, y}; !reflect.DeepEqual(got, want) {
		t.Fatalf("memo %v, want solver order %v", got, want)
	}

	// Random tables whose small integer characteristics tie in cost often,
	// with repeated vectors, on the demand grid and — one point past the
	// grid's cap — on the generic scan.
	vectors := platform.EnumerateVectors(p, 0)
	huge := vec(t, p, []int{0, 0}, []int{0})
	huge.Counts[1][0] = 5000
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := &Table{App: "r", Platform: p.Name}
		for i := 0; i < 1+r.Intn(200); i++ {
			tbl.Points = append(tbl.Points, OperatingPoint{
				Vector:  vectors[r.Intn(1+r.Intn(len(vectors)))],
				Utility: float64(r.Intn(10)),
				Power:   float64(r.Intn(10)),
				Samples: i,
			})
		}
		for _, generic := range []bool{false, true} {
			if generic {
				tbl = tbl.Clone()
				tbl.Points = append(tbl.Points, OperatingPoint{Vector: huge, Utility: 1, Power: 1, Samples: -1})
			}
			vstar := tbl.MaxUtility()
			usable := slices.DeleteFunc(slices.Clone(tbl.Points), func(op OperatingPoint) bool { return !op.Usable(vstar) })
			if got, want := tbl.ParetoPoints(), inSolverOrder(runtimeFront(usable, nil, 0), vstar); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, generic scan %v: memo %v, want %v", seed, generic, got, want)
			}
		}
	}
}

// inSolverOrder is the solver order by its definition: front stably sorted
// by cost at vstar, then by vector key.
func inSolverOrder(front []OperatingPoint, vstar float64) []OperatingPoint {
	slices.SortStableFunc(front, func(a, b OperatingPoint) int {
		return cmp.Or(cmp.Compare(a.Cost(vstar), b.Cost(vstar)), strings.Compare(a.Vector.Key(), b.Vector.Key()))
	})
	return front
}
