package alloc

import (
	"fmt"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

func incTestPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := &platform.Platform{
		Name:            "inc-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
		Kinds: []platform.CoreKind{
			{Name: "P", Count: 8, SMT: 1, MaxFreqGHz: 3, MinFreqGHz: 0.5, IPC: 2, ActiveWatts: 2, IdleWatts: 0.2, SleepWatts: 0.02},
			{Name: "E", Count: 8, SMT: 1, MaxFreqGHz: 2, MinFreqGHz: 0.5, IPC: 1, ActiveWatts: 1, IdleWatts: 0.1, SleepWatts: 0.01},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func incTestTable(t *testing.T, p *platform.Platform, app string, kind int, utility float64) *opoint.Table {
	t.Helper()
	tbl := &opoint.Table{App: app, Platform: p.Name}
	for cores := 1; cores <= 2; cores++ {
		rv := platform.NewResourceVector(p)
		rv.Counts[kind][0] = cores
		tbl.Upsert(opoint.OperatingPoint{
			Vector:   rv,
			Utility:  utility * float64(cores) * 0.8,
			Power:    float64(cores),
			Measured: true,
		})
	}
	return tbl
}

func incTestInputs(t *testing.T, p *platform.Platform, n int) []AppInput {
	t.Helper()
	inputs := make([]AppInput, n)
	for i := range inputs {
		id := fmt.Sprintf("app%02d", i)
		inputs[i] = AppInput{ID: id, Table: incTestTable(t, p, id, i%2, 4+float64(i%5))}
	}
	return inputs
}

// assertStructurallyValid re-implements the core structural invariants the
// internal/check oracle enforces (which cannot be imported here without a
// cycle): output order matches input order, isolated grants realise the
// chosen vector, isolated allocations never overlap, per-kind demand fits.
func assertStructurallyValid(t *testing.T, p *platform.Platform, inputs []AppInput, allocs []Allocation) {
	t.Helper()
	if len(allocs) != len(inputs) {
		t.Fatalf("%d allocations for %d inputs", len(allocs), len(inputs))
	}
	owner := make(map[int]string)
	for i, al := range allocs {
		if al.ID != inputs[i].ID {
			t.Fatalf("allocs[%d] = %s, want input order %s", i, al.ID, inputs[i].ID)
		}
		if al.CoAllocated {
			continue
		}
		want := 0
		for kind := range al.Point.Vector.Counts {
			want += al.Point.Vector.Cores(platform.KindID(kind))
		}
		if len(al.Grants) != want {
			t.Fatalf("%s: %d grants for a %d-core vector", al.ID, len(al.Grants), want)
		}
		for _, g := range al.Grants {
			if prev, taken := owner[g.Core]; taken {
				t.Fatalf("core %d granted to both %s and %s", g.Core, prev, al.ID)
			}
			owner[g.Core] = al.ID
		}
	}
}

func totalCost(inputs []AppInput, allocs []Allocation) float64 {
	sum := 0.0
	for i, al := range allocs {
		if c := al.Point.Cost(inputs[i].Table.MaxUtility()); c == c && !al.Point.Vector.IsZero() { // skip NaN / fallback
			sum += c
		}
	}
	return sum
}

// TestIncrementalPinsUnchangedApps pins the tentpole behaviour: after a full
// solve, a solve where only one table changed runs incrementally — the
// unchanged apps keep their standing allocations, the result stays
// structurally valid and its cost stays within the oracle's 1.10× bound of
// a from-scratch full solve.
func TestIncrementalPinsUnchangedApps(t *testing.T) {
	p := incTestPlatform(t)
	a, err := New(p, WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	inputs := incTestInputs(t, p, 6)

	first, stats, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source == SourceIncremental {
		t.Fatal("first solve cannot be incremental (no pins exist)")
	}
	assertStructurallyValid(t, p, inputs, first)

	// Mutate one table (new content hash → fingerprint change).
	inputs[2].Table.Upsert(opoint.OperatingPoint{
		Vector:   vecOf(t, p, 1, 3),
		Utility:  9,
		Power:    2.5,
		Measured: true,
	})
	second, stats, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source != SourceIncremental {
		t.Fatalf("second solve source = %q, want %q", stats.Source, SourceIncremental)
	}
	if len(stats.Changed) < 1 || len(stats.Changed) > len(inputs)/2 {
		t.Fatalf("changed %v of %d: expected a small changed set with most apps pinned",
			stats.Changed, len(inputs))
	}
	assertStructurallyValid(t, p, inputs, second)

	// Unchanged apps keep their standing allocations.
	for i := range inputs {
		if i == 2 {
			continue
		}
		if !second[i].Point.Vector.Equal(first[i].Point.Vector) {
			t.Fatalf("unchanged app %s moved from %s to %s",
				inputs[i].ID, first[i].Point.Vector.Key(), second[i].Point.Vector.Key())
		}
	}

	// Differential equivalence: within the oracle's 1.10× cost bound of a
	// cold full solve over the same inputs.
	fresh, err2 := New(p)
	if err2 != nil {
		t.Fatal(err2)
	}
	full, _, err := fresh.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	incCost, fullCost := totalCost(inputs, second), totalCost(inputs, full)
	if incCost > fullCost*1.10+1e-9 {
		t.Fatalf("incremental cost %.4f exceeds 1.10× full-solve cost %.4f", incCost, fullCost)
	}
}

func vecOf(t *testing.T, p *platform.Platform, kind, cores int) platform.ResourceVector {
	t.Helper()
	rv := platform.NewResourceVector(p)
	rv.Counts[kind][0] = cores
	return rv
}

// TestIncrementalFullSolveCadence pins the guard rail: after the configured
// number of accepted incremental merges, the next solve runs the full
// pipeline again.
func TestIncrementalFullSolveCadence(t *testing.T) {
	p := incTestPlatform(t)
	a, err := New(p, WithIncremental(true), WithCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	a.incFullEvery = 2
	inputs := incTestInputs(t, p, 4)
	sources := []string{}
	for i := 0; i < 5; i++ {
		_, stats, err := a.AllocateWithStats(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, stats.Source)
		// Perturb one table each round so every solve has a changed set.
		inputs[i%4].Table.Upsert(opoint.OperatingPoint{
			Vector:   vecOf(t, p, 0, 3),
			Utility:  8 + float64(i),
			Power:    3,
			Measured: true,
		})
	}
	// Round 0 is the baseline full solve; rounds 1-2 merge incrementally;
	// round 3 hits the cadence and goes full; round 4 is incremental again.
	want := []string{SourceCold, SourceIncremental, SourceIncremental, SourceCold, SourceIncremental}
	for i := range want {
		if sources[i] != want[i] {
			t.Fatalf("solve sources = %v, want %v", sources, want)
		}
	}
}

// TestIncrementalBailsWhenMostChanged pins the oversized-changed-set guard:
// when more than half the inputs changed, the full pipeline runs instead.
func TestIncrementalBailsWhenMostChanged(t *testing.T) {
	p := incTestPlatform(t)
	a, err := New(p, WithIncremental(true), WithCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := incTestInputs(t, p, 4)
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		inputs[i].Table.Upsert(opoint.OperatingPoint{
			Vector:   vecOf(t, p, i%2, 3),
			Utility:  10 + float64(i),
			Power:    3,
			Measured: true,
		})
	}
	_, stats, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source == SourceIncremental {
		t.Fatal("incremental path taken although every input changed")
	}
}

// TestIncrementalHandlesDepartures pins the churn case: sessions leaving
// between solves shrink the input; the merged result must only cover the
// survivors and stay valid.
func TestIncrementalHandlesDepartures(t *testing.T) {
	p := incTestPlatform(t)
	a, err := New(p, WithIncremental(true), WithCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := incTestInputs(t, p, 6)
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		t.Fatal(err)
	}
	survivors := append(append([]AppInput{}, inputs[:2]...), inputs[3:]...)
	allocs, stats, err := a.AllocateWithStats(survivors)
	if err != nil {
		t.Fatal(err)
	}
	assertStructurallyValid(t, p, survivors, allocs)
	for i, al := range allocs {
		if al.ID != survivors[i].ID {
			t.Fatalf("allocation %d is %q, want survivor %q", i, al.ID, survivors[i].ID)
		}
	}
	for _, i := range stats.Changed {
		if i >= len(survivors) {
			t.Fatalf("changed %v names a position past the %d survivors", stats.Changed, len(survivors))
		}
	}
}

// TestIncrementalOffIsByteStable pins the opt-in contract: with incremental
// disabled (the default), repeated cold solves stay bit-identical — the
// rememberFullSolve hook must be a true no-op.
func TestIncrementalOffIsByteStable(t *testing.T) {
	p := incTestPlatform(t)
	a, err := New(p, WithCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := incTestInputs(t, p, 5)
	first, _, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	second, stats, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source == SourceIncremental {
		t.Fatal("incremental path ran although the option is off")
	}
	for i := range first {
		if !first[i].Point.Vector.Equal(second[i].Point.Vector) || len(first[i].Grants) != len(second[i].Grants) {
			t.Fatalf("solve %s not byte-stable with incremental off", inputs[i].ID)
		}
		for j := range first[i].Grants {
			if first[i].Grants[j] != second[i].Grants[j] {
				t.Fatalf("grants differ for %s with incremental off", inputs[i].ID)
			}
		}
	}
	if since, pinned := a.incSinceFull, len(a.pins.hi); since != 0 || pinned != 0 {
		t.Fatalf("incremental bookkeeping (%d, %d) active although the option is off", since, pinned)
	}
}

// TestReadmissionIsResolved pins the re-admission rule: an application the
// previous solve did not contain is re-solved when it returns, however many
// other applications left while it was away. Pins keyed by ID used to keep
// its old pin until enough unrelated departures pruned the map, so the same
// return was pinned or re-solved depending on that count; both sides of the
// old prune boundary (2n+16 pins) must now solve it alike.
func TestReadmissionIsResolved(t *testing.T) {
	p := incTestPlatform(t)
	comeback := func(churn int) Stats {
		a, err := New(p, WithIncremental(true), WithCache(-1))
		if err != nil {
			t.Fatal(err)
		}
		a.incFullEvery = 1 << 30
		solve := func(inputs []AppInput) Stats {
			t.Helper()
			allocs, stats, err := a.AllocateWithStats(inputs)
			if err != nil {
				t.Fatal(err)
			}
			assertStructurallyValid(t, p, inputs, allocs)
			if pinned := len(a.pins.hi); pinned != len(inputs) {
				t.Fatalf("%d pins after a solve of %d inputs", pinned, len(inputs))
			}
			return stats
		}
		inputs := incTestInputs(t, p, 4)
		solve(inputs)
		away := inputs[1]
		inputs = slices.Delete(inputs, 1, 2)
		solve(inputs)
		for k := 0; k < churn; k++ {
			id := fmt.Sprintf("churn%02d", k)
			inputs[len(inputs)-1] = AppInput{ID: id, Table: incTestTable(t, p, id, 1, 4)}
			solve(inputs)
		}
		return solve(append(inputs, away))
	}
	few, many := comeback(2), comeback(30)
	for _, st := range []Stats{few, many} {
		if st.Source != SourceIncremental || !slices.Equal(st.Changed, []int{3}) {
			t.Fatalf("returning application: source %q, changed %v; want it alone re-solved",
				st.Source, st.Changed)
		}
	}
}
