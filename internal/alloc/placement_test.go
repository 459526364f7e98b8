package alloc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// TestDifferentialPlacementVsCursor holds a fresh allocator to the cursor
// assignment it replaced: with no standing placement, the placement pass
// must give exactly the reference cursor's cores for the same selection, on
// the seeded oracle sweep and on crowded instances that co-allocate.
func TestDifferentialPlacementVsCursor(t *testing.T) {
	n := diffSeedCount(t)
	coAllocated := 0
	for seed := int64(0); seed < n; seed++ {
		p, inputs := check.Gen(seed, diffConfig(seed))
		if seed%2 == 1 {
			r := rand.New(rand.NewSource(seed))
			p = check.GenPlatform(r, check.GenConfig{MaxCoresPerKind: 3})
			inputs = check.GenInputs(r, p, check.GenConfig{MaxApps: 12})
		}
		for _, method := range []alloc.Method{alloc.Lagrangian, alloc.Greedy} {
			fresh, err := alloc.New(p, alloc.WithMethod(method))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alloc.New(p, alloc.WithMethod(method))
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Allocate(inputs)
			if err != nil {
				t.Fatalf("seed %d (%v): %v", seed, method, err)
			}
			want, err := ref.CursorPlacement(inputs)
			if err != nil {
				t.Fatalf("seed %d (%v): reference: %v", seed, method, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%v): placement diverges from the cursor\ngot  %+v\nwant %+v", seed, method, got, want)
			}
			for _, al := range got {
				if al.CoAllocated {
					coAllocated++
				}
			}
		}
	}
	if coAllocated == 0 {
		t.Fatal("no instance co-allocated: the sweep tested the isolated cursor only")
	}
}

// TestPlacementStaysPut is the stickiness property: after one arrival, one
// departure or a swap of two applications, an application whose vector and
// co-allocation flag are unchanged keeps its grant list bit-for-bit —
// co-allocated ones on every solve, isolated ones across incremental merges
// (a full solve hands isolated cores out with the cursor) — except for
// grants the placement invariant moves; an arrival inserted before a
// survivor and a swap never merge. Moves are counted and bounded: each
// lands on a distinct core that was idle, so there are never more than the
// cores whose state (idle, isolated holder) differs between the two solves
// or that an arriving, departing or changed application holds in either.
func TestPlacementStaysPut(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 80
	}
	var kept, moves, merges int
	for seed := int64(0); seed < seeds; seed++ {
		for _, inc := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/incremental=%v", seed, inc), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				p := check.GenPlatform(r, check.GenConfig{MaxCoresPerKind: 4})
				inputs := check.GenInputs(r, p, check.GenConfig{MaxApps: 24})
				spare := check.GenInputs(r, p, check.GenConfig{MaxApps: 1})[0]
				spare.ID = "arrival"
				a, err := alloc.New(p, alloc.WithCache(4), alloc.WithWarmStart(seed%2 == 0), alloc.WithIncremental(inc))
				if err != nil {
					t.Fatal(err)
				}
				before, err := a.Allocate(inputs)
				if err != nil {
					t.Fatal(err)
				}
				before = cloneAllocs(before)
				next, reordered := slices.Clone(inputs), false
				switch ev := r.Intn(3); {
				case ev == 0 || len(next) < 2:
					at := r.Intn(len(next) + 1)
					next, reordered = slices.Insert(next, at, spare), at < len(inputs)
				case ev == 1:
					i := r.Intn(len(next))
					next = slices.Delete(next, i, i+1)
				default:
					i := r.Intn(len(next) - 1)
					j := i + 1 + r.Intn(len(next)-1-i)
					next[i], next[j], reordered = next[j], next[i], true
				}
				after, st, err := a.AllocateWithStats(next)
				if err != nil {
					t.Fatal(err)
				}
				if err := check.CheckAllocations(p, next, after); err != nil {
					t.Fatal(err)
				}
				if err := check.CheckPlacement(p, after); err != nil {
					t.Fatal(err)
				}
				merged := st.Source == alloc.SourceIncremental
				if merged && reordered {
					t.Fatalf("a reordered input merged")
				} else if merged {
					merges++
				}
				was := map[string]alloc.Allocation{}
				for _, al := range before {
					was[al.ID] = al
				}
				n := 0
				for _, al := range after {
					w, ok := was[al.ID]
					if !ok || w.CoAllocated != al.CoAllocated || !w.Point.Vector.Equal(al.Point.Vector) ||
						(!al.CoAllocated && !merged) {
						continue
					}
					kept++
					if slices.Equal(w.Grants, al.Grants) {
						continue
					}
					if !al.CoAllocated || len(w.Grants) != len(al.Grants) {
						t.Fatalf("%s (co=%v) moved from %v to %v", al.ID, al.CoAllocated, w.Grants, al.Grants)
					}
					for gi := range al.Grants {
						if al.Grants[gi] != w.Grants[gi] {
							n++
						}
					}
				}
				if bound := changedCores(p, before, after); n > bound {
					t.Fatalf("%d grants moved, more than the %d cores the event changed", n, bound)
				}
				moves += n
			})
		}
	}
	t.Logf("%d unchanged applications across %d events (%d merges); %d grants moved by the invariant", kept, 2*seeds, merges, moves)
	if kept == 0 || merges == 0 {
		t.Fatalf("kept %d, merges %d: the sweep tested too little", kept, merges)
	}
}

// TestMergeKeepsPositionZero pins that an isolated application whose vector
// is unchanged keeps its cores across an incremental merge at every standing
// position, the first included. x departs from the front, so a stands at
// position 0 on core 1 with core 0 free; a's table then changes without
// changing its vector, and the merge re-solves a. Keeping leaves a on core
// 1, where filling the holes in ascending order would move it to core 0.
func TestMergeKeepsPositionZero(t *testing.T) {
	p := harpsim.ChurnPlatform(1, 4)
	x, a, b := onePoint(p, "x", 4, 1), onePoint(p, "a", 4, 1), onePoint(p, "b", 4, 1)
	retabled := onePoint(p, "a", 5, 1) // new content, the same vector
	al, err := alloc.New(p, alloc.WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	onCore1 := []alloc.CoreGrant{{Core: 1, Threads: 1}}
	for i, step := range []struct {
		tables []*opoint.Table
		source string
	}{
		{[]*opoint.Table{x, a, b}, alloc.SourceCold},
		{[]*opoint.Table{a, b}, alloc.SourceIncremental},        // x departs
		{[]*opoint.Table{retabled, b}, alloc.SourceIncremental}, // a is re-solved
	} {
		inputs := make([]alloc.AppInput, len(step.tables))
		for j, tbl := range step.tables {
			inputs[j] = alloc.AppInput{ID: tbl.App, Table: tbl}
		}
		out, st, err := al.AllocateWithStats(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Source != step.source {
			t.Fatalf("step %d: source %s, want %s", i, st.Source, step.source)
		}
		if i == 2 && !slices.Equal(st.Changed, []int{0}) {
			t.Fatalf("step %d: changed %v, want [0]: a was not re-solved", i, st.Changed)
		}
		aAt := len(step.tables) - 2
		if !slices.Equal(out[aAt].Grants, onCore1) {
			t.Fatalf("step %d: a holds %v, want %v", i, out[aAt].Grants, onCore1)
		}
	}
}

// TestCoAllocationRingIdleFirst pins the co-allocation ring's order
// (DESIGN.md §4.11): a co-allocated application placed afresh takes its
// kind's idle cores before the cores that kept co-allocated grants use. a
// holds every K1 core, so b and then c, which each need one, are
// co-allocated. b stands on K0 core 0 and keeps it; c's K0 core must be the
// idle core 1, not b's core 0.
func TestCoAllocationRingIdleFirst(t *testing.T) {
	p := harpsim.ChurnPlatform(2, 3) // K0: cores 0-2, K1: cores 3-5
	a, b, c := onePoint(p, "a", 4, 0, 3), onePoint(p, "b", 4, 1, 1), onePoint(p, "c", 4, 1, 1)
	al, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []alloc.AppInput{{ID: "a", Table: a}, {ID: "b", Table: b}}
	first, err := al.Allocate(inputs)
	if err != nil {
		t.Fatal(err)
	}
	bGrants := []alloc.CoreGrant{{Core: 0, Threads: 1}, {Core: 3, Threads: 1}}
	if !first[1].CoAllocated || !slices.Equal(first[1].Grants, bGrants) {
		t.Fatalf("b = %+v, want co-allocated on %v", first[1], bGrants)
	}
	out, err := al.Allocate(append(inputs, alloc.AppInput{ID: "c", Table: c}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out[1].Grants, bGrants) {
		t.Fatalf("b moved from %v to %v", bGrants, out[1].Grants)
	}
	if want := []alloc.CoreGrant{{Core: 1, Threads: 1}, {Core: 3, Threads: 1}}; !out[2].CoAllocated || !slices.Equal(out[2].Grants, want) {
		t.Fatalf("c = %+v, want co-allocated on %v: the idle K0 core first", out[2], want)
	}
}

// onePoint is a table of one measured point on cores[k] single-threaded
// cores of kind k.
func onePoint(p *platform.Platform, app string, utility float64, cores ...int) *opoint.Table {
	rv := platform.NewResourceVector(p)
	for k, n := range cores {
		rv.Counts[k][0] = n
	}
	tbl := &opoint.Table{App: app, Platform: p.Name}
	tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: utility, Power: 1, Measured: true})
	return tbl
}

// changedCores counts the cores whose state differs between two solves —
// idle, or the isolated holder — or that an application present in only one
// of them, or with a different vector or flag, holds in either.
func changedCores(p *platform.Platform, before, after []alloc.Allocation) int {
	type state struct {
		idle bool
		iso  string
	}
	view := func(allocs []alloc.Allocation) []state {
		s := make([]state, p.NumCores())
		for c := range s {
			s[c].idle = true
		}
		for _, al := range allocs {
			for _, g := range al.Grants {
				s[g.Core].idle = false
				if !al.CoAllocated {
					s[g.Core].iso = al.ID
				}
			}
		}
		return s
	}
	b, a := view(before), view(after)
	changed := make([]bool, p.NumCores())
	for c := range changed {
		changed[c] = b[c] != a[c]
	}
	same := func(x alloc.Allocation, others []alloc.Allocation) bool {
		for _, y := range others {
			if y.ID == x.ID {
				return y.CoAllocated == x.CoAllocated && y.Point.Vector.Equal(x.Point.Vector)
			}
		}
		return false
	}
	for _, pair := range [2][2][]alloc.Allocation{{before, after}, {after, before}} {
		for _, al := range pair[0] {
			if !same(al, pair[1]) {
				for _, g := range al.Grants {
					changed[g.Core] = true
				}
			}
		}
	}
	n := 0
	for _, c := range changed {
		if c {
			n++
		}
	}
	return n
}

func cloneAllocs(allocs []alloc.Allocation) []alloc.Allocation {
	out := make([]alloc.Allocation, len(allocs))
	for i, al := range allocs {
		al.Point.Vector = al.Point.Vector.Clone()
		al.Grants = slices.Clone(al.Grants)
		out[i] = al
	}
	return out
}
