package alloc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
)

// TestEditMatchesDerivedAlignment drives random edit sequences through
// AllocateEdit and, on a twin allocator with the same history, through
// AllocateWithStats, which derives its edit from IDs: the allocations,
// grants included, and the Stats must be equal at every step, and the
// derived edit and alignment must be a plain ID map's (alloc.AlignByMap).
// The sequences hold mid-order departures, bursts of consecutive
// departures, arrivals (some of which leave again before the solve, so the
// edit never sees them), retables to a copy of the same content and to new
// content, epochs in which nothing changed, edits with a stale Base or a
// repeated Gone or Retabled entry, which the allocator must ignore, and
// inputs no edit describes: two survivors swapped, an arrival inserted
// before a survivor.
func TestEditMatchesDerivedAlignment(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEditDifferential(t, seed)
		})
	}
}

func runEditDifferential(t *testing.T, seed int64) {
	p := harpsim.ChurnPlatform(3, 8)
	rng := rand.New(rand.NewSource(seed))
	bad := rand.New(rand.NewSource(^seed))
	cadence := 4 + rng.Intn(40)
	drift := alloc.DefaultIncrementalDriftBound
	if seed%3 == 0 {
		drift = 1.02 // tight enough to fall back now and then
	}
	opts := []alloc.Option{alloc.WithCache(-1)}
	if seed%2 == 1 {
		opts = []alloc.Option{alloc.WithCache(4), alloc.WithWarmStart(true)}
	}
	edited, _, err := alloc.NewIncrementalPair(p, cadence, drift, opts...)
	if err != nil {
		t.Fatal(err)
	}
	walked, _, err := alloc.NewIncrementalPair(p, cadence, drift, opts...)
	if err != nil {
		t.Fatal(err)
	}

	nk := len(p.Kinds)
	table := func(id string) *opoint.Table {
		ks := []int{rng.Intn(nk)}
		if rng.Intn(6) == 0 {
			ks = append(ks, (ks[0]+1)%nk)
		}
		return pinsTable(p, id, ks, 3+float64(rng.Intn(8)))
	}
	nextID := 0
	arrival := func() alloc.AppInput {
		id := fmt.Sprintf("app%04d", nextID)
		nextID++
		return alloc.AppInput{ID: id, Table: table(id)}
	}
	var solved []alloc.AppInput
	for i := 0; i < 120; i++ {
		solved = append(solved, arrival())
	}

	var ed alloc.Edit
	var last []alloc.Allocation // the twin's standing placement
	counts := map[string]int{}
	for step := 0; step < 150; step++ {
		// The next input: the survivors of the solved one in order, then
		// the arrivals. gone marks departed positions of the solved input.
		next := slices.Clone(solved)
		gone := make([]bool, len(solved))
		var arrivals []alloc.AppInput
		for e := rng.Intn(3); e >= 0; e-- {
			switch roll := rng.Intn(20); {
			case roll < 4 || len(solved) < 70:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					arrivals = append(arrivals, arrival())
				}
				counts["arrivals"]++
			case roll < 5 && len(arrivals) > 0:
				i := rng.Intn(len(arrivals)) // leaves before the solve
				arrivals = slices.Delete(arrivals, i, i+1)
				counts["arrival left"]++
			case roll < 9:
				gone[rng.Intn(len(solved))] = true
				counts["departure"]++
			case roll < 11 && len(solved) > 100:
				n := 65 + rng.Intn(20)
				at := rng.Intn(len(solved) - n + 1)
				for i := at; i < at+n; i++ {
					gone[i] = true
				}
				counts["burst"]++
			case roll < 13:
				i := rng.Intn(len(next))
				next[i].Table = next[i].Table.Clone() // same content, new pointer
				counts["same-content retable"]++
			case roll < 16:
				i := rng.Intn(len(next))
				next[i].Table = table(next[i].ID)
				counts["retable"]++
			case roll < 17 && len(arrivals) > 0:
				i := rng.Intn(len(arrivals))
				arrivals[i].Table = table(arrivals[i].ID)
				counts["arrival retable"]++
			default:
				counts["nothing"]++ // a phase change: the input stands
			}
		}
		ed.Base, ed.Gone, ed.Retabled = len(solved), ed.Gone[:0], ed.Retabled[:0]
		inputs := make([]alloc.AppInput, 0, len(solved)+len(arrivals))
		for i, in := range next {
			if gone[i] {
				ed.Gone = append(ed.Gone, i)
				continue
			}
			if in.Table != solved[i].Table {
				ed.Retabled = append(ed.Retabled, len(inputs))
			}
			inputs = append(inputs, in)
		}
		for _, in := range arrivals {
			if rng.Intn(3) == 0 {
				ed.Retabled = append(ed.Retabled, len(inputs)) // arrivals may be listed
			}
			inputs = append(inputs, in)
		}
		if rng.Intn(25) == 0 {
			ed.Base += 1 - 2*rng.Intn(2) // stale: the allocator derives its own
			counts["stale base"]++
		}
		// A repeated entry makes the edit malformed, and the allocator
		// derives its own; after a swap of two survivors or an arrival
		// inserted before one, no edit describes the input. Both are drawn
		// from their own stream, so the sequence above stays as it was.
		kept, reordered := len(inputs)-len(arrivals), false
		switch roll := bad.Intn(10); {
		case roll == 0 && len(ed.Gone) > 0:
			i := bad.Intn(len(ed.Gone))
			ed.Gone = slices.Insert(ed.Gone, i, ed.Gone[i])
			counts["repeated gone"]++
		case roll == 1 && len(ed.Retabled) > 0:
			i := bad.Intn(len(ed.Retabled))
			ed.Retabled = slices.Insert(ed.Retabled, i, ed.Retabled[i])
			counts["repeated retabled"]++
		case roll == 2 && kept >= 2 && last != nil:
			i := bad.Intn(kept - 1)
			if j := i + 1 + bad.Intn(kept-1-i); len(arrivals) == 0 || bad.Intn(2) == 0 {
				inputs[i], inputs[j] = inputs[j], inputs[i]
				counts["swap"]++
			} else {
				inputs = slices.Insert(inputs[:len(inputs)-1], i, inputs[len(inputs)-1])
				counts["mid-order insert"]++
			}
			ed.Base, reordered = -1, true
		}
		wantEd, wantSrc := alloc.AlignByMap(last, inputs)
		if gotEd, gotSrc := walked.DerivedAlignment(inputs); fmt.Sprint(gotEd, gotSrc) != fmt.Sprint(wantEd, wantSrc) || reordered != (wantEd == nil) {
			t.Fatalf("step %d: derived edit %v src %v, the map gives %v src %v", step, gotEd, gotSrc, wantEd, wantSrc)
		}

		got, gotStats, err := edited.AllocateEdit(inputs, &ed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, wantStats, err := walked.AllocateWithStats(inputs)
		if err != nil {
			t.Fatalf("step %d: walk: %v", step, err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("step %d (edit %+v): stats\ngot  %+v\nwant %+v", step, ed, gotStats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("step %d (%s): position %d\ngot  %+v\nwant %+v", step, gotStats.Source, i, got[i], want[i])
				}
			}
			t.Fatalf("step %d: %d allocations, want %d", step, len(got), len(want))
		}
		counts[gotStats.Source]++
		solved, last = inputs, want
	}
	for _, c := range []string{alloc.SourceIncremental, "burst", "departure", "arrival left", "same-content retable", "retable", "nothing", "stale base", "repeated gone", "repeated retabled", "swap", "mid-order insert"} {
		if counts[c] == 0 {
			t.Fatalf("%v: no %q: the sequence tested too little", counts, c)
		}
	}
	t.Logf("%v", counts)
}
