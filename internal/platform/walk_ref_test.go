package platform_test

import (
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/platform"
)

// refEnumerateVectorsWithin is EnumerateVectorsWithin as it was before the
// walk: it materialises each kind's tuple list, then every combination of
// one tuple per kind, kind 0 outermost. Kept as the reference for
// TestWalkMatchesEnumeration.
func refEnumerateVectorsWithin(p *platform.Platform, caps []int) []platform.ResourceVector {
	perKind := make([][][]int, len(p.Kinds))
	for kindIdx, k := range p.Kinds {
		limit := k.Count
		if kindIdx < len(caps) && caps[kindIdx] < limit {
			limit = caps[kindIdx]
		}
		if limit < 0 {
			limit = 0
		}
		perKind[kindIdx] = refEnumerateKind(k.SMT, limit)
	}

	var out []platform.ResourceVector
	var build func(kind int, acc [][]int)
	build = func(kind int, acc [][]int) {
		if kind == len(perKind) {
			rv := platform.ResourceVector{Counts: make([][]int, len(acc))}
			nonZero := false
			for i, counts := range acc {
				rv.Counts[i] = make([]int, len(counts))
				copy(rv.Counts[i], counts)
				for _, c := range counts {
					if c != 0 {
						nonZero = true
					}
				}
			}
			if nonZero {
				out = append(out, rv)
			}
			return
		}
		for _, counts := range perKind[kind] {
			build(kind+1, append(acc, counts))
		}
	}
	build(0, make([][]int, 0, len(p.Kinds)))
	return out
}

// refEnumerateKind lists all (c_1, …, c_smt) with Σc_t ≤ limit.
func refEnumerateKind(smt, limit int) [][]int {
	var out [][]int
	counts := make([]int, smt)
	var rec func(slot, used int)
	rec = func(slot, used int) {
		if slot == smt {
			c := make([]int, smt)
			copy(c, counts)
			out = append(out, c)
			return
		}
		for c := 0; c <= limit-used; c++ {
			counts[slot] = c
			rec(slot+1, used+c)
		}
		counts[slot] = 0
	}
	rec(0, 0)
	return out
}

// walkPlatforms are the built-in platforms plus generated ones with up to
// three kinds and SMT up to 3.
func walkPlatforms() []*platform.Platform {
	plats := []*platform.Platform{platform.RaptorLake(), platform.OdroidXU3()}
	for seed := int64(1); seed <= 30; seed++ {
		p, _ := check.Gen(seed, check.GenConfig{MaxSMT: 3})
		plats = append(plats, p)
	}
	return plats
}

// walkCaps are the caps the walk is compared under on p: nil, shorter than
// the kind list, negative, zero and above every kind's Count, and each kind
// one core short of its Count, with and without the caps after it.
func walkCaps(p *platform.Platform) [][]int {
	n := len(p.Kinds)
	out := [][]int{nil, {}, {1}, {-3}, {0}}
	for _, fill := range []int{-1, 0, 1, 2, 100} {
		caps := make([]int, n)
		for i := range caps {
			caps[i] = fill
		}
		out = append(out, caps)
	}
	for k := range p.Kinds {
		caps := make([]int, n)
		for i := range caps {
			caps[i] = p.Kinds[i].Count
		}
		caps[k] = p.Kinds[k].Count - 1
		out = append(out, caps, caps[:k])
	}
	return out
}

// TestWalkMatchesEnumeration requires the walk to decode the reference
// enumeration's vectors in its order, with each vector's Features, its
// Index equal to its position, Position finding every vector there and Len
// counting them, on Raptor Lake, the Odroid and generated platforms under
// every cap shape; vectors outside the space have no Position.
func TestWalkMatchesEnumeration(t *testing.T) {
	for _, p := range walkPlatforms() {
		for _, caps := range walkCaps(p) {
			want := refEnumerateVectorsWithin(p, caps)
			s := platform.SpaceWithin(p, caps)
			if s.Len() != len(want) {
				t.Fatalf("%v caps %v: Len %d, reference has %d vectors", p, caps, s.Len(), len(want))
			}
			if got := platform.EnumerateVectorsWithin(p, caps); len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%v caps %v: EnumerateVectorsWithin differs from the reference", p, caps)
			}
			nf := len(platform.NewResourceVector(p).Features())
			w := s.Walk(platform.NewResourceVector(p), make([]float64, nf))
			i := 0
			for ; w.Next(); i++ {
				if i >= len(want) {
					t.Fatalf("%v caps %v: walk yields more than the reference's %d vectors", p, caps, len(want))
				}
				if !reflect.DeepEqual(w.Vector, want[i]) {
					t.Fatalf("%v caps %v: vector %d is %v, reference %v", p, caps, i, w.Vector, want[i])
				}
				if !reflect.DeepEqual(w.Features, want[i].Features()) {
					t.Fatalf("%v caps %v: vector %d features %v, want %v", p, caps, i, w.Features, want[i].Features())
				}
				if w.Index() != i || s.Position(want[i]) != i {
					t.Fatalf("%v caps %v: vector %d has Index %d, Position %d", p, caps, i, w.Index(), s.Position(want[i]))
				}
			}
			if i != len(want) {
				t.Fatalf("%v caps %v: walk yields %d vectors, reference %d", p, caps, i, len(want))
			}
			if w.Next() {
				t.Fatalf("%v caps %v: an exhausted walk advanced", p, caps)
			}
		}

		whole := platform.SpaceWithin(p, nil)
		if pos := whole.Position(platform.NewResourceVector(p)); pos != -1 {
			t.Fatalf("%v: the zero vector has Position %d", p, pos)
		}
		over := p.Capacity()
		over.Counts[0][0]++
		if pos := whole.Position(over); pos != -1 {
			t.Fatalf("%v: a vector over capacity has Position %d", p, pos)
		}
		neg := p.Capacity()
		neg.Counts[0][0] = -1
		if pos := whole.Position(neg); pos != -1 {
			t.Fatalf("%v: a negative count has Position %d", p, pos)
		}
		if pos := whole.Position(platform.ResourceVector{Counts: [][]int{{1}}}); len(p.Kinds) > 1 && pos != -1 {
			t.Fatalf("%v: a vector of the wrong shape has Position %d", p, pos)
		}
	}
}

// TestWalkAllocatesNothing pins the walk: a full pass over Raptor Lake's
// 764 configurations, features and positions included, allocates nothing.
func TestWalkAllocatesNothing(t *testing.T) {
	p := platform.RaptorLake()
	s := platform.SpaceWithin(p, nil)
	rv := platform.NewResourceVector(p)
	feats := make([]float64, len(rv.Features()))
	n := 0
	if allocs := testing.AllocsPerRun(10, func() {
		n = 0
		for w := s.Walk(rv, feats); w.Next(); n++ {
			if s.Position(w.Vector) != w.Index() {
				t.Fatal("Position disagrees with the walk")
			}
		}
	}); allocs != 0 {
		t.Fatalf("a walk allocates %v times, want 0", allocs)
	}
	if n != 764 {
		t.Fatalf("walked %d configurations, want 764", n)
	}
}
