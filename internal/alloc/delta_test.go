package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// deltaTable is a one- or two-kind table whose content is a pure function of
// its arguments, so "the table changed" and "the table is the same again"
// are both expressible.
func deltaTable(p *platform.Platform, app string, kinds []int, utility float64) *opoint.Table {
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

// snapshotAllocation deep-copies what the ownership rule lets the solver
// overwrite.
func snapshotAllocation(al Allocation) Allocation {
	al.Point.Vector = al.Point.Vector.Clone()
	al.Grants = slices.Clone(al.Grants)
	return al
}

func equalAllocation(a, b Allocation) bool {
	return a.ID == b.ID && a.CoAllocated == b.CoAllocated &&
		a.Point.Utility == b.Point.Utility && a.Point.Power == b.Point.Power &&
		a.Point.Vector.Equal(b.Point.Vector) && slices.Equal(a.Grants, b.Grants)
}

// deltaTestPlatform is a three-kind machine with eight cores per kind.
func deltaTestPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := &platform.Platform{
		Name:            "delta-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
	}
	for k := 0; k < 3; k++ {
		p.Kinds = append(p.Kinds, platform.CoreKind{
			Name:        fmt.Sprintf("K%d", k),
			Count:       8,
			SMT:         1,
			MaxFreqGHz:  3 - 0.5*float64(k),
			MinFreqGHz:  0.5,
			IPC:         2 - 0.3*float64(k),
			ActiveWatts: 2 - 0.4*float64(k),
			IdleWatts:   0.1,
			SleepWatts:  0.01,
		})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChangedCoversTrueDiff drives random populations through the
// incremental solver — arrivals, departures, departed applications coming
// back, table changes (including ones that move an application to another
// core kind), co-allocation pressure (so the neighbourhood lifts), a short
// full-solve cadence and a drift bound tight enough to fall back — and checks
// the delta contract after every solve: whenever Stats.Changed is non-nil it
// is ascending, in range, and contains every position whose allocation
// differs from the previous answer for the same ID (or whose ID the previous
// solve did not contain). The p<n> level solves each step's population n
// times, holding each repeat to the same contract against the answer before
// it; the repeats are no-change merges that shift the full-solve cadence
// against the population changes.
func TestChangedCoversTrueDiff(t *testing.T) {
	p := deltaTestPlatform(t)
	for _, passes := range []int{1, 2} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("incremental/p%d/seed%d", passes, seed), func(t *testing.T) {
				a, err := New(p, WithIncremental(true), WithCache(4))
				if err != nil {
					t.Fatal(err)
				}
				a.incFullEvery = 7
				a.incDriftBound = 1.02
				runDeltaScenario(t, p, a, seed, passes)
			})
		}
	}
}

func runDeltaScenario(t *testing.T, p *platform.Platform, solver *Allocator, seed int64, passes int) {
	rng := rand.New(rand.NewSource(seed))
	nk := len(p.Kinds)
	var inputs []AppInput
	var departed []AppInput
	nextID := 0
	arrive := func() {
		id := fmt.Sprintf("app%03d", nextID)
		nextID++
		kinds := []int{rng.Intn(nk)}
		if rng.Intn(6) == 0 { // a two-kind application
			kinds = append(kinds, (kinds[0]+1)%nk)
		}
		inputs = append(inputs, AppInput{ID: id, Table: deltaTable(p, id, kinds, 4+float64(rng.Intn(5)))})
	}
	for i := 0; i < 20; i++ {
		arrive()
	}

	prev := map[string]Allocation{}
	sources := map[string]int{}
	deltas, lifted := 0, 0
	for step := 0; step < 120; step++ {
		switch roll := rng.Intn(10); {
		case roll < 2:
			arrive()
		case roll < 4 && len(inputs) > 8:
			i := rng.Intn(len(inputs))
			departed = append(departed, inputs[i])
			inputs = slices.Delete(inputs, i, i+1)
		case roll < 5 && len(departed) > 0:
			// A departed application returns with the table it left with.
			// The previous solve did not contain it, so it is re-solved.
			i := rng.Intn(len(departed))
			at := rng.Intn(len(inputs) + 1)
			inputs = slices.Insert(inputs, at, departed[i])
			departed = slices.Delete(departed, i, i+1)
		case roll < 8:
			i := rng.Intn(len(inputs))
			kinds := []int{rng.Intn(nk)} // may move the app to another kind
			inputs[i].Table = deltaTable(p, inputs[i].ID, kinds, 3+float64(rng.Intn(8)))
		default:
			// nothing changed: the delta should be empty, not nil
		}

		for pass := 0; pass < passes; pass++ {
			allocs, stats, err := solver.AllocateWithStats(inputs)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			assertStructurallyValid(t, p, inputs, allocs)
			sources[stats.Source]++

			if err := CheckChanged(inputs, allocs, stats, prev); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if stats.Changed != nil {
				deltas++
				for _, al := range allocs {
					if was, known := prev[al.ID]; known && was.CoAllocated && !al.CoAllocated {
						lifted++
					}
				}
			}
			clear(prev)
			for _, al := range allocs {
				prev[al.ID] = snapshotAllocation(al)
			}
		}
	}
	if deltas == 0 {
		t.Fatalf("no solve reported a delta (sources %v): the scenario tested nothing", sources)
	}
	t.Logf("sources %v, %d deltas, %d lifts out of co-allocation", sources, deltas, lifted)
}

// TestChangedNilForFullSolves pins the other half of the contract: a solve
// that did not come from the incremental merge reports no delta at all. The
// cache is probed only behind a merge the incremental path declined, so the
// cached solve here restores the first population after a changed set
// larger than half the input.
func TestChangedNilForFullSolves(t *testing.T) {
	p := incTestPlatform(t)
	inputs := incTestInputs(t, p, 6)
	original := slices.Clone(inputs)
	moved := overHalfRetabled(t, p, inputs)
	a, err := New(p, WithIncremental(true), WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		in   []AppInput
		want string
	}{{original, SourceCold}, {moved, SourceCold}, {original, SourceCached}} {
		_, stats, err := a.AllocateWithStats(step.in)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Source != step.want || stats.Changed != nil {
			t.Fatalf("solve %d: source %q, Changed %v; want %q and nil", i, stats.Source, stats.Changed, step.want)
		}
	}
	inputs[0].Table = incTestTable(t, p, "app00", 1, 9)
	_, stats, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source != SourceIncremental || stats.Changed == nil {
		t.Fatalf("changed-table solve: source %q, Changed %v; want an incremental delta", stats.Source, stats.Changed)
	}
	if !slices.Contains(stats.Changed, 0) {
		t.Fatalf("Changed = %v does not list the application whose table changed", stats.Changed)
	}
}

// overHalfRetabled returns a copy of six incTestInputs with the first four
// tables changed: more than half the input, so the incremental path
// declines the merge.
func overHalfRetabled(t *testing.T, p *platform.Platform, inputs []AppInput) []AppInput {
	moved := slices.Clone(inputs)
	for i := range 4 {
		moved[i].Table = incTestTable(t, p, moved[i].ID, 1-i%2, 7)
	}
	return moved
}

// TestAcceptedMergeSkipsCacheProbe pins the probe order: the cache memoises
// the full pipeline and is probed only in front of it, so a merge the
// incremental path accepts — an identical re-solve included — neither
// fingerprints the input nor counts a cache miss, and a merge it declines
// still reaches the cache.
func TestAcceptedMergeSkipsCacheProbe(t *testing.T) {
	p := incTestPlatform(t)
	m := telemetry.NewMetrics(telemetry.NewRegistry())
	a, err := New(p, WithIncremental(true), WithCache(8), WithMetrics(m), WithTracer(telemetry.NewTracer(0)))
	if err != nil {
		t.Fatal(err)
	}
	fingerprints := m.EpochPhase.With(telemetry.PhaseFingerprint)
	solve := func(in []AppInput, want string) {
		t.Helper()
		if _, st, err := a.AllocateWithStats(in); err != nil || st.Source != want {
			t.Fatalf("source %q, err %v; want %q", st.Source, err, want)
		}
	}
	original := incTestInputs(t, p, 6)
	solve(original, SourceCold)
	misses, probes := m.AllocCacheMisses.Value(), fingerprints.Count()
	if misses != 1 || probes != 1 {
		t.Fatalf("first solve: %d misses, %d fingerprints; want 1 and 1", misses, probes)
	}

	retabled := slices.Clone(original)
	retabled[2].Table = incTestTable(t, p, "app02", 0, 9)
	for _, in := range [][]AppInput{original, retabled, original, retabled[:5]} {
		solve(in, SourceIncremental)
	}
	if got, n := m.AllocCacheMisses.Value(), fingerprints.Count(); got != misses || n != probes {
		t.Fatalf("accepted merges probed the cache: misses %d → %d, fingerprints %d → %d", misses, got, probes, n)
	}

	solve(overHalfRetabled(t, p, original), SourceCold)
	solve(original, SourceCached)
	if h := m.AllocCacheHits.Value(); h != 1 || fingerprints.Count() != probes+2 {
		t.Fatalf("declined merges: %d hits, %d fingerprints; want 1 and %d", h, fingerprints.Count(), probes+2)
	}
}

// TestIncrementalMergeSteadyStateAllocations pins what the delta pipeline is
// for: a merge that re-solves one application allocates for that application
// only — the merged solution, the pin lookups and the work lists are all
// retained — so the count does not depend on the population.
func TestIncrementalMergeSteadyStateAllocations(t *testing.T) {
	p := incTestPlatform(t)
	perMerge := func(n int) float64 {
		a, err := New(p, WithIncremental(true), WithCache(-1))
		if err != nil {
			t.Fatal(err)
		}
		a.incFullEvery = 1 << 30
		inputs := incTestInputs(t, p, n)
		if _, _, err := a.AllocateWithStats(inputs); err != nil {
			t.Fatal(err)
		}
		tables := [2]*opoint.Table{incTestTable(t, p, "app00", 0, 5), incTestTable(t, p, "app00", 0, 6)}
		flip := 0
		solve := func() {
			inputs[0].Table = tables[flip&1]
			flip++
			_, stats, err := a.AllocateWithStats(inputs)
			if err != nil || stats.Source != SourceIncremental {
				t.Fatalf("solve: source %q, err %v", stats.Source, err)
			}
		}
		solve()
		solve() // both tables hashed, every buffer sized
		return testing.AllocsPerRun(20, solve)
	}
	small, large := perMerge(40), perMerge(400)
	if large > small+2 {
		t.Fatalf("merge allocations grow with the population: %.0f at 40 apps, %.0f at 400", small, large)
	}
}

// TestSolutionCacheWeightBound pins the memory bound that the entry count
// alone does not give: solutions of a large population are evicted by the
// number of allocations retained, newest always admitted.
func TestSolutionCacheWeightBound(t *testing.T) {
	c := newSolutionCache(DefaultCacheSize)
	big := make([]Allocation, cacheMaxAllocations/2-1)
	for i := 0; i < 5; i++ {
		c.put(Fingerprint{Hi: uint64(i)}, big, Stats{})
	}
	if got := len(c.entries); got != 2 {
		t.Fatalf("%d entries of %d allocations resident, want 2 under a budget of %d", got, len(big), cacheMaxAllocations)
	}
	if c.get(Fingerprint{Hi: 4}) == nil || c.get(Fingerprint{Hi: 3}) == nil {
		t.Fatal("the most recent solutions were evicted")
	}
	huge := make([]Allocation, 2*cacheMaxAllocations)
	c.put(Fingerprint{Hi: 9}, huge, Stats{})
	if len(c.entries) != 1 || c.get(Fingerprint{Hi: 9}) == nil {
		t.Fatalf("an over-budget solution must still be admitted alone; %d entries resident", len(c.entries))
	}
	if c.weight != len(huge) {
		t.Fatalf("weight %d after evictions, want %d", c.weight, len(huge))
	}
}
