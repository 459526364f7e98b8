package opoint

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/harp-rm/harp/internal/platform"
)

func vec(t *testing.T, p *platform.Platform, perKind ...[]int) platform.ResourceVector {
	t.Helper()
	rv, err := platform.VectorOf(p, perKind...)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

func TestCostFollowsEq2(t *testing.T) {
	p := platform.RaptorLake()
	op := OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 50, Power: 10}
	// v* = 100 → v̂ = 0.5 → ζ = 10 / 0.25 = 40.
	if got := op.Cost(100); math.Abs(got-40) > 1e-9 {
		t.Errorf("Cost = %g, want 40", got)
	}
	// At maximum utility, ζ = power.
	if got := op.Cost(50); math.Abs(got-10) > 1e-9 {
		t.Errorf("Cost at v* = %g, want 10", got)
	}
}

func TestCostDegenerate(t *testing.T) {
	op := OperatingPoint{Utility: 0, Power: 10}
	if got := op.Cost(100); !math.IsInf(got, 1) {
		t.Errorf("Cost with zero utility = %g, want +Inf", got)
	}
	op.Utility = 10
	if got := op.Cost(0); !math.IsInf(got, 1) {
		t.Errorf("Cost with zero v* = %g, want +Inf", got)
	}
}

// Lower utility must never yield a lower cost at equal power, and higher
// power must never yield a lower cost at equal utility.
func TestCostMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vstar := 1 + r.Float64()*99
		u := r.Float64() * vstar
		pw := r.Float64() * 100
		a := OperatingPoint{Utility: u, Power: pw}
		b := OperatingPoint{Utility: u * 0.9, Power: pw}
		c := OperatingPoint{Utility: u, Power: pw * 1.1}
		if u <= 0 || pw <= 0 {
			return true
		}
		return a.Cost(vstar) <= b.Cost(vstar) && a.Cost(vstar) <= c.Cost(vstar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableLookupUpsert(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "ep.C", Platform: p.Name}
	v1 := vec(t, p, []int{2, 0}, []int{0})

	if _, ok := tbl.Lookup(v1); ok {
		t.Fatal("Lookup on empty table succeeded")
	}
	tbl.Upsert(OperatingPoint{Vector: v1, Utility: 10, Power: 5})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{4}), Utility: 8, Power: 3})
	if len(tbl.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(tbl.Points))
	}
	// Upsert with an equal vector replaces the values but keeps the stored
	// vector, so the table never pins the caller's backing array.
	stored := tbl.Points[0].Vector.Counts
	tbl.Upsert(OperatingPoint{Vector: v1.Clone(), Utility: 12, Power: 6, Measured: true})
	if len(tbl.Points) != 2 {
		t.Fatalf("points after replace = %d, want 2", len(tbl.Points))
	}
	if &tbl.Points[0].Vector.Counts[0] != &stored[0] {
		t.Error("replacing a point adopted the caller's vector instead of keeping the stored one")
	}
	got, ok := tbl.Lookup(v1)
	if !ok || got.Utility != 12 || !got.Measured {
		t.Fatalf("Lookup after replace = (%+v, %v)", got, ok)
	}
	if got := tbl.MeasuredCount(); got != 1 {
		t.Errorf("MeasuredCount = %d, want 1", got)
	}
	if got := tbl.MaxUtility(); got != 12 {
		t.Errorf("MaxUtility = %g, want 12", got)
	}
}

func TestTableValidate(t *testing.T) {
	p := platform.RaptorLake()
	good := &Table{App: "x", Points: []OperatingPoint{
		{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 1, Power: 1},
	}}
	if err := good.Validate(p); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	noName := &Table{Points: good.Points}
	if err := noName.Validate(p); err == nil {
		t.Error("table without app name accepted")
	}
	badPower := good.Clone()
	badPower.Points[0].Power = -1
	if err := badPower.Validate(p); err == nil {
		t.Error("negative power accepted")
	}
	wrongShape := &Table{App: "x", Points: []OperatingPoint{
		{Vector: platform.NewResourceVector(platform.OdroidXU3()), Utility: 1, Power: 1},
	}}
	if err := wrongShape.Validate(p); err == nil {
		t.Error("cross-platform vector accepted")
	}
}

// TestCloneOwnsItsPoints: a clone's points are its own to edit; their
// vectors are shared, since no vector is written once built.
func TestCloneOwnsItsPoints(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x", Points: []OperatingPoint{
		{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 1, Power: 1},
	}}
	cp := tbl.Clone()
	cp.Points[0].Utility = 99
	if tbl.Points[0].Utility == 99 {
		t.Fatal("Clone shares its points with the original")
	}
}

func TestSortDeterministic(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x"}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{2, 0}, []int{0})})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{3})})
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 1}, []int{2})})
	tbl.Sort()
	keys := make([]string, len(tbl.Points))
	for i, op := range tbl.Points {
		keys[i] = op.Vector.Key()
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("not sorted: %v", keys)
		}
	}
}

func TestParetoSimple(t *testing.T) {
	type pt struct{ a, b float64 }
	pts := []pt{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 4}, // dominated by {3,3} and {2,4}
		{5, 5}, // dominated
	}
	front := Pareto(pts, func(dst []float64, p pt) []float64 { return append(dst, p.a, p.b) })
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3: %v", len(front), front)
	}
}

func TestParetoKeepsOneOfDuplicates(t *testing.T) {
	type pt struct{ a float64 }
	pts := []pt{{1}, {1}, {2}}
	front := Pareto(pts, func(dst []float64, p pt) []float64 { return append(dst, p.a) })
	if len(front) != 1 || front[0].a != 1 {
		t.Fatalf("front = %v, want exactly one {1}", front)
	}
}

func TestParetoEmpty(t *testing.T) {
	if got := Pareto(nil, func(dst []float64, _ int) []float64 { return dst }); got != nil {
		t.Fatalf("Pareto(nil) = %v, want nil", got)
	}
}

// Property: every non-front point is dominated by some front point, and no
// front point dominates another.
func TestParetoProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{float64(r.Intn(6)), float64(r.Intn(6)), float64(r.Intn(6))}
		}
		front := Pareto(pts, func(dst, p []float64) []float64 { return append(dst, p...) })
		if len(front) == 0 {
			return false
		}
		dominates := func(a, b []float64) bool {
			return dominanceOf(a, b) == strictlyDominates
		}
		for _, fp := range front {
			for _, fq := range front {
				if dominates(fp, fq) {
					return false
				}
			}
		}
		for _, p := range pts {
			onFront := false
			for _, fp := range front {
				if &fp == &p {
					onFront = true
				}
			}
			if onFront {
				continue
			}
			covered := false
			for _, fp := range front {
				if dominates(fp, p) || dominanceOf(fp, p) == equalObjectives {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeObjectivesPareto(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "x"}
	// Strictly better point: more utility, less power, fewer cores.
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 10, Power: 5})
	// Dominated: fewer utility, more power, more cores.
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{2, 0}, []int{0}), Utility: 8, Power: 9})
	// Incomparable: less utility but fewer resources/power.
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{0, 0}, []int{1}), Utility: 4, Power: 1})

	front := tbl.ParetoPoints()
	if len(front) != 2 {
		t.Fatalf("front size = %d, want 2", len(front))
	}
	for _, op := range front {
		if op.Utility == 8 {
			t.Error("dominated point survived")
		}
	}
}

func TestDescriptionFileRoundTrip(t *testing.T) {
	p := platform.RaptorLake()
	tbl := &Table{App: "ep.C", Platform: p.Name}
	tbl.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 2}, []int{4}), Utility: 123.4, Power: 56.7, Measured: true, Samples: 20})

	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := got.Validate(p); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
	op, ok := got.Lookup(tbl.Points[0].Vector)
	if !ok || op.Utility != 123.4 || op.Power != 56.7 || !op.Measured || op.Samples != 20 {
		t.Fatalf("round trip point = %+v", op)
	}
}

func TestLoadRejectsBadDescriptions(t *testing.T) {
	for _, give := range []string{"nope", `{"bogus": 1}`, `{"points": []}`} {
		if _, err := Load(strings.NewReader(give)); err == nil {
			t.Errorf("Load(%q) accepted", give)
		}
	}
}

func TestLoadDir(t *testing.T) {
	p := platform.RaptorLake()
	dir := t.TempDir()
	a := &Table{App: "a", Platform: p.Name}
	a.Upsert(OperatingPoint{Vector: vec(t, p, []int{1, 0}, []int{0}), Utility: 1, Power: 1})
	if err := a.SaveFile(filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	b := &Table{App: "b", Platform: p.Name}
	if err := b.SaveFile(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}

	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(got) != 2 || got["a"] == nil || got["b"] == nil {
		t.Fatalf("LoadDir = %v", got)
	}

	empty, err := LoadDir(filepath.Join(dir, "missing"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("LoadDir(missing) = (%v, %v), want empty map", empty, err)
	}
}

// TestParetoMatchesBruteForce pins Pareto against the definition, checked
// the O(n²) way on random tables with repeated objective rows: a point stays
// unless another strictly dominates it or an earlier one has the same row,
// and the front comes out in lexicographic objective order, ties by input
// position.
func TestParetoMatchesBruteForce(t *testing.T) {
	p := platform.RaptorLake()
	vectors := platform.EnumerateVectors(p, 0)
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := 5 + int(seed%40) // few vectors: equal rows and ties are common
		pts := make([]OperatingPoint, 1+r.Intn(120))
		for i := range pts {
			if i > 0 && r.Intn(4) == 0 {
				pts[i] = pts[r.Intn(i)] // a duplicate objective row
			} else {
				pts[i] = OperatingPoint{
					Vector:  vectors[r.Intn(pool)],
					Utility: float64(r.Intn(8)),
					Power:   float64(r.Intn(8)),
				}
			}
			pts[i].Samples = i // tells duplicates apart: the earliest must stay

		}
		rows := make([][]float64, len(pts))
		for i, op := range pts {
			rows[i] = RuntimeObjectives(nil, op)
		}
		dominates := func(a, b []float64) bool { // a strictly dominates b
			strict := false
			for k := range a {
				if a[k] > b[k] {
					return false
				}
				strict = strict || a[k] < b[k]
			}
			return strict
		}
		var want []int
		for i := range pts {
			keep := true
			for j := range pts {
				if dominates(rows[j], rows[i]) || (j < i && slices.Equal(rows[j], rows[i])) {
					keep = false
					break
				}
			}
			if keep {
				want = append(want, i)
			}
		}
		slices.SortStableFunc(want, func(i, j int) int { return slices.Compare(rows[i], rows[j]) })

		got := Pareto(pts, RuntimeObjectives)
		if len(got) != len(want) {
			t.Fatalf("seed %d: front has %d points, brute force %d", seed, len(got), len(want))
		}
		for n, i := range want {
			if got[n].Samples != i {
				t.Fatalf("seed %d: front[%d] = %+v, brute force has point %d %+v", seed, n, got[n], i, pts[i])
			}
		}
	}
}
