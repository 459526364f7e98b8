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

// TestPositionalPinsMatchMapPins is the differential gate for the
// positional pins: random edit sequences — tail arrivals, departures
// anywhere, bursts of consecutive departures, table changes and inputs a
// caller reordered, which both solve in full — solved by the positional
// allocator and by the map-keyed reference (alloc.MapPins) must give
// identical allocations and Stats whenever no ID re-enters after being
// absent. The re-entry sequences may differ (the reference keeps a
// returning ID's old pin while its map has not been pruned; the positional
// pins re-solve it), so for them, as for every sequence, each result is
// held to check.CheckAllocations and the Stats.Changed contract, and the
// pinned population to the previous solve's.
func TestPositionalPinsMatchMapPins(t *testing.T) {
	p := harpsim.ChurnPlatform(3, 8)
	for seed := int64(0); seed < 12; seed++ {
		for _, reentry := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/reentry=%v", seed, reentry), func(t *testing.T) {
				runPinsDifferential(t, p, seed, reentry)
			})
		}
	}
}

// pinsTable is a table of one to three cores on one or two kinds whose
// content is a pure function of its arguments.
func pinsTable(p *platform.Platform, app string, kinds []int, utility float64) *opoint.Table {
	tbl := &opoint.Table{App: app, Platform: p.Name}
	for _, kind := range kinds {
		for cores := 1; cores <= 3; cores++ {
			rv := platform.NewResourceVector(p)
			rv.Counts[kind][0] = cores
			tbl.Upsert(opoint.OperatingPoint{
				Vector:   rv,
				Utility:  utility * float64(cores) * (0.8 + 0.05*float64(kind)),
				Power:    float64(cores) * (1 + 0.2*float64(kind)),
				Measured: true,
			})
		}
	}
	return tbl
}

func runPinsDifferential(t *testing.T, p *platform.Platform, seed int64, reentry bool) {
	rng := rand.New(rand.NewSource(seed))
	cadence := 4 + rng.Intn(40)
	drift := alloc.DefaultIncrementalDriftBound
	if seed%3 == 0 {
		drift = 1.02 // tight enough to fall back now and then
	}
	opts := []alloc.Option{alloc.WithCache(-1)}
	if seed%2 == 1 {
		opts = []alloc.Option{alloc.WithCache(4), alloc.WithWarmStart(true)}
	}
	a, ref, err := alloc.NewIncrementalPair(p, cadence, drift, opts...)
	if err != nil {
		t.Fatal(err)
	}

	nk := len(p.Kinds)
	table := func(id string) *opoint.Table {
		kinds := []int{rng.Intn(nk)}
		if rng.Intn(6) == 0 {
			kinds = append(kinds, (kinds[0]+1)%nk)
		}
		return pinsTable(p, id, kinds, 3+float64(rng.Intn(8)))
	}
	var inputs, departed []alloc.AppInput
	nextID := 0
	arrive := func() {
		id := fmt.Sprintf("app%04d", nextID)
		nextID++
		inputs = append(inputs, alloc.AppInput{ID: id, Table: table(id)})
	}
	depart := func(i, n int) {
		departed = append(departed, inputs[i:i+n]...)
		inputs = slices.Delete(inputs, i, i+n)
	}
	for i := 0; i < 120; i++ {
		arrive()
	}

	prev := map[string]alloc.Allocation{}
	sources := map[string]int{}
	bursts, reorders, reentries := 0, 0, 0
	for step := 0; step < 150; step++ {
		for e := rng.Intn(3); e >= 0; e-- {
			switch roll := rng.Intn(20); {
			case roll < 4 || len(inputs) < 70:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					arrive()
				}
			case roll < 8:
				depart(rng.Intn(len(inputs)), 1)
			case roll < 10 && len(inputs) > 100:
				n := 65 + rng.Intn(20)
				depart(rng.Intn(len(inputs)-n+1), n)
				bursts++
			case roll < 13:
				i := rng.Intn(len(inputs))
				inputs[i].Table = table(inputs[i].ID)
			case roll < 15:
				// A caller reorders its inputs: a swap or a move.
				i, j := rng.Intn(len(inputs)), rng.Intn(len(inputs))
				if rng.Intn(2) == 0 {
					inputs[i], inputs[j] = inputs[j], inputs[i]
				} else {
					in := inputs[i]
					inputs = slices.Insert(slices.Delete(inputs, i, i+1), j%len(inputs), in)
				}
				reorders++
			case roll < 17 && reentry && len(departed) > 0:
				// A departed application returns with the table it left with.
				i := rng.Intn(len(departed))
				inputs = slices.Insert(inputs, rng.Intn(len(inputs)+1), departed[i])
				departed = slices.Delete(departed, i, i+1)
				reentries++
			default:
				// nothing changed
			}
		}

		got, gotStats, err := a.AllocateWithStats(inputs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := check.CheckAllocations(p, inputs, got); err != nil {
			t.Fatalf("step %d (%s): %v", step, gotStats.Source, err)
		}
		if err := check.CheckPlacement(p, got); err != nil {
			t.Fatalf("step %d (%s): %v", step, gotStats.Source, err)
		}
		if err := alloc.CheckChanged(inputs, got, gotStats, prev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if pinned := a.Pinned(); pinned != len(inputs) {
			t.Fatalf("step %d: %d pins after a solve of %d inputs", step, pinned, len(inputs))
		}
		sources[gotStats.Source]++

		want, wantStats, err := ref.AllocateWithStats(inputs)
		if err != nil {
			t.Fatalf("step %d: reference: %v", step, err)
		}
		if !reentry {
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("step %d: stats\ngot  %+v\nwant %+v", step, gotStats, wantStats)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("step %d (%s): position %d\ngot  %+v\nwant %+v", step, gotStats.Source, i, got[i], want[i])
				}
			}
		}

		clear(prev)
		for _, al := range got {
			al.Point.Vector = al.Point.Vector.Clone()
			al.Grants = slices.Clone(al.Grants)
			prev[al.ID] = al
		}
	}
	if sources[alloc.SourceIncremental] == 0 || bursts+reorders == 0 || (reentry && reentries == 0) {
		t.Fatalf("sources %v, %d bursts, %d reorders, %d re-entries: the sequence tested too little", sources, bursts, reorders, reentries)
	}
	t.Logf("sources %v, %d bursts, %d reorders, %d re-entries", sources, bursts, reorders, reentries)
}
