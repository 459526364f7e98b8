package alloc

import (
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// TestSolverListsReusedOnlyForSameFacts holds the kept candidate lists to
// their key: a solver state keeps its list, and its λ representatives,
// across solves exactly when its table comes back with the same facts
// pointer. A sequence of solves covers unchanged inputs, an in-place edit
// followed by Invalidate, a same-length Clone with changed points, a
// departure that hands a state its own kept list back after it shared
// another's, and a table with no usable point. Every solve must equal,
// allocation for allocation (grants included) and in its Stats, a twin that
// runs the same sequence with its states dropped before every solve, and
// its selection must equal a fresh allocator's. Each step also pins which
// states kept their list.
func TestSolverListsReusedOnlyForSameFacts(t *testing.T) {
	p := platform.RaptorLake()
	profile := func(name string) *workload.Profile {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	for _, method := range []Method{Lagrangian, Greedy} {
		t1, t2, t3 := tableFor(p, profile("ep.C")), tableFor(p, profile("mg.C")), tableFor(p, profile("cg.C"))
		a := newAllocator(t, p, WithMethod(method))
		twin := newAllocator(t, p, WithMethod(method))
		var last []Allocation
		step := func(name string, apps []AppInput, kept ...int) {
			t.Helper()
			marks := markLists(a.scratch.states)
			got, gotStats, err := a.AllocateWithStats(apps)
			if err != nil {
				t.Fatalf("%s, %s: %v", method, name, err)
			}
			twin.scratch.states = nil
			want, wantStats, err := twin.AllocateWithStats(apps)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, equalAllocation) || !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("%s, %s: kept lists solved\n %+v %+v\nfresh lists\n %+v %+v", method, name, got, gotStats, want, wantStats)
			}
			sel, selStats, err := newAllocator(t, p, WithMethod(method)).AllocateWithStats(apps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sel {
				if sel[i].ID != got[i].ID || sel[i].CoAllocated != got[i].CoAllocated || !reflect.DeepEqual(sel[i].Point, got[i].Point) {
					t.Fatalf("%s, %s: position %d selected %+v, a fresh allocator %+v", method, name, i, got[i], sel[i])
				}
			}
			if !reflect.DeepEqual(gotStats, selStats) {
				t.Fatalf("%s, %s: stats %+v, a fresh allocator's %+v", method, name, gotStats, selStats)
			}
			if k := keptLists(a.scratch.states, marks); !slices.Equal(k, kept) {
				t.Fatalf("%s, %s: states %v kept their lists, want %v", method, name, k, kept)
			}
			last = last[:0]
			for _, al := range got {
				last = append(last, snapshotAllocation(al))
			}
		}
		// moved fails the step unless position i's point moved: a change
		// that leaves it tests nothing.
		moved := func(name string, was Allocation, i int) {
			t.Helper()
			if reflect.DeepEqual(was.Point, last[i].Point) {
				t.Fatalf("%s, %s: position %d kept %v; the case tests nothing", method, name, i, was.Point.Vector)
			}
		}
		// pricier multiplies the power of the point with position i's chosen
		// vector in tbl, so the next solve chooses another.
		pricier := func(tbl *opoint.Table, i int) {
			for j := range tbl.Points {
				if tbl.Points[j].Vector.Equal(last[i].Point.Vector) {
					tbl.Points[j].Power *= 50
				}
			}
		}

		step("first solve", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}})
		step("unchanged inputs", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 0, 1, 2)

		was := last[1]
		t2 = t2.Clone()
		pricier(t2, 1)
		step("same-length Clone", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 0, 2)
		moved("same-length Clone", was, 1)

		// The same table pointer with new content: only its facts tell.
		was = last[0]
		pricier(t1, 0)
		t1.Invalidate()
		step("in-place edit and Invalidate", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 1, 2)
		moved("in-place edit", was, 0)

		// d arrives sharing a's table: state 1 shares state 0's list and
		// keeps its own (t2's). d departs: state 1 takes t2 back and uses
		// the list it kept.
		step("arrival", []AppInput{{ID: "a", Table: t1}, {ID: "d", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 0, 1)
		step("departure", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 0, 1, 3)

		was = last[2]
		unusable := t3.Clone()
		for j := range unusable.Points {
			unusable.Points[j].Power = 0
		}
		step("no usable point", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: unusable}}, 0, 1, 3)
		moved("no usable point", was, 2)
		step("usable again", []AppInput{{ID: "a", Table: t1}, {ID: "b", Table: t2}, {ID: "c", Table: t3}}, 0, 1, 3)
	}
}

// listMark is what markLists left in a state's own list: a copy of its
// first point and of its first representative's demand.
type listMark struct {
	op     *opoint.OperatingPoint
	demand []float64
}

// markLists points each state's first candidate, and its first
// representative's demand, at copies of equal value, which a solve reads
// exactly as it reads the originals and a rebuild overwrites.
func markLists(states []*appState) []listMark {
	marks := make([]listMark, len(states))
	for i, st := range states {
		if len(st.candBuf) == 0 {
			continue
		}
		op := *st.candBuf[0].op
		st.candBuf[0].op, marks[i].op = &op, &op
		if len(st.reps) > 0 {
			st.reps[0].demand = slices.Clone(st.reps[0].demand)
			marks[i].demand = st.reps[0].demand
		}
	}
	return marks
}

// keptLists returns the states whose own list, and representatives, still
// carry their marks.
func keptLists(states []*appState, marks []listMark) []int {
	var kept []int
	for i, m := range marks {
		st := states[i]
		if m.op == nil || st.candBuf[0].op != m.op {
			continue
		}
		if m.demand != nil && (len(st.reps) == 0 || &st.reps[0].demand[0] != &m.demand[0]) {
			continue
		}
		kept = append(kept, i)
	}
	return kept
}
