package alloc

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// benchInputs builds a realistic 5-application allocation problem with full
// 764-point tables — the allocator's production workload on the Intel
// platform.
func benchInputs(tb testing.TB) (*platform.Platform, []AppInput) {
	tb.Helper()
	plat := platform.RaptorLake()
	names := []string{"ep.C", "mg.C", "cg.C", "ft.C", "sp.C"}
	var inputs []AppInput
	for _, name := range names {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			tb.Fatal(err)
		}
		tbl := &opoint.Table{App: name, Platform: plat.Name}
		for _, rv := range platform.EnumerateVectors(plat, 0) {
			ev := workload.EvaluateVector(plat, prof, rv)
			tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts, Measured: true})
		}
		inputs = append(inputs, AppInput{ID: name, Table: tbl})
	}
	return plat, inputs
}

// benchPerturb nudges one point of the first table — the "next epoch" input
// shape: same structure, slightly different numbers. Flipping between the two
// variants keeps every solve a cache miss while staying warm-start friendly.
func benchPerturb(inputs []AppInput, up bool) {
	pt := inputs[0].Table.Points[0]
	if up {
		pt.Utility *= 1.01
	} else {
		pt.Utility /= 1.01
	}
	inputs[0].Table.Upsert(pt)
}

func benchmarkAllocate(b *testing.B, method Method) {
	plat, inputs := benchInputs(b)
	a, err := New(plat, WithMethod(method))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateLagrangian is the cold regime: every solve runs the full
// subgradient iteration from λ=0 (no cache, no warm start).
func BenchmarkAllocateLagrangian(b *testing.B) { benchmarkAllocate(b, Lagrangian) }

func BenchmarkAllocateGreedy(b *testing.B) { benchmarkAllocate(b, Greedy) }

// BenchmarkAllocateCacheHit is the steady-state regime: unchanged inputs
// between epochs are served from the fingerprinted solution cache. The
// contract is 0 allocs/op — enforced here and in TestCacheHitZeroAllocs.
func BenchmarkAllocateCacheHit(b *testing.B) {
	plat, inputs := benchInputs(b)
	a, err := New(plat, WithCache(DefaultCacheSize))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := a.AllocateWithStats(inputs); err != nil { // fill
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := a.AllocateWithStats(inputs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Source != SourceCached {
			b.Fatalf("solve source = %q, want %q", st.Source, SourceCached)
		}
	}
}

// BenchmarkAllocateWarmStart is the perturbed-epoch regime: each solve sees a
// slightly changed input (a guaranteed cache miss) and seeds its λ vector
// from the previous epoch's fixpoint.
func BenchmarkAllocateWarmStart(b *testing.B) {
	plat, inputs := benchInputs(b)
	a, err := New(plat, WithWarmStart(true))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := a.AllocateWithStats(inputs); err != nil { // establish λ
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchPerturb(inputs, i%2 == 0)
		// Rebuild the table's memoised Pareto front outside the timed
		// region: the mutation invalidated it, and its recompute is table
		// maintenance, not solve work.
		inputs[0].Table.ParetoPoints()
		b.StartTimer()
		_, st, err := a.AllocateWithStats(inputs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Source != SourceWarm {
			b.Fatalf("solve source = %q, want %q", st.Source, SourceWarm)
		}
	}
}

// retable8 is the solver's share of a table re-upload on a busy daemon:
// eight Intel applications with full 764-point tables, the first jittered by
// ±1 % per point as a re-measured description would be, and an allocator
// configured as the daemon's (solution cache, warm start). stamp(i) rewrites
// one useless point of the first table with utility stamp i, so the
// fingerprint never repeats and the next solve is a cache miss that rebuilds
// the table's Pareto front, as an upload does; the other seven tables do not
// change.
func retable8(tb testing.TB) (a *Allocator, inputs []AppInput, stamp func(i int)) {
	tb.Helper()
	plat := platform.RaptorLake()
	rng := rand.New(rand.NewSource(1))
	for i, name := range []string{"ep.C", "mg.C", "cg.C", "ft.C", "sp.C", "bt.C", "lu.C", "ua.C"} {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			tb.Fatal(err)
		}
		tbl := tableFor(plat, prof)
		if i == 0 {
			for p := range tbl.Points {
				tbl.Points[p].Utility *= 0.99 + 0.02*rng.Float64()
				tbl.Points[p].Power *= 0.99 + 0.02*rng.Float64()
			}
		}
		inputs = append(inputs, AppInput{ID: name, Table: tbl})
	}
	active := inputs[0].Table
	at := 0 // the point with the most cores: never worth choosing
	for p, op := range active.Points {
		if op.Vector.TotalCores() > active.Points[at].Vector.TotalCores() {
			at = p
		}
	}
	a, err := New(plat, WithCache(DefaultCacheSize), WithWarmStart(true))
	if err != nil {
		tb.Fatal(err)
	}
	return a, inputs, func(i int) {
		active.Points[at].Utility = 1 + float64(i)*1e-9
		active.Invalidate()
	}
}

// BenchmarkAllocateRetable8 solves the retable8 input once per stamp: every
// solve is a cache miss over one changed table and seven unchanged ones.
func BenchmarkAllocateRetable8(b *testing.B) {
	a, inputs, stamp := retable8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stamp(i)
		_, st, err := a.AllocateWithStats(inputs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Source == SourceCached {
			b.Fatal("stamped solve served from the cache")
		}
	}
}

// TestRetableSolveAllocRegime pins the heap cost of a stamped retable8
// solve: the changed table's facts, front and validation, the cache entry
// and the grants of the applications that moved, and nothing per unchanged
// table — at most 10 allocations and 41 000 bytes.
func TestRetableSolveAllocRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tables are slow to build in -short mode")
	}
	a, inputs, stamp := retable8(t)
	i := 0
	solve := func() {
		i++
		stamp(i)
		if _, st, err := a.AllocateWithStats(inputs); err != nil || st.Source == SourceCached {
			t.Fatalf("unexpected solve: source=%q err=%v", st.Source, err)
		}
	}
	solve() // the first solve builds every list
	const runs = 50
	if avg := testing.AllocsPerRun(runs, solve); avg > 10 {
		t.Errorf("stamped retable solve allocates %.1f times per run, want at most 10", avg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 41000 {
		t.Errorf("stamped retable solve allocates %d bytes per run, want at most 41000", perRun)
	}
}

// TestBenchCacheHitZeroAllocsRegime pins the benchmark regime itself with
// testing.AllocsPerRun on the full production-size input, so a regression
// shows up in `go test` even when benchmarks are not run.
func TestBenchCacheHitZeroAllocsRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tables are slow to build in -short mode")
	}
	plat, inputs := benchInputs(t)
	a, err := New(plat, WithCache(DefaultCacheSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, st, err := a.AllocateWithStats(inputs); err != nil || st.Source != SourceCached {
			t.Fatalf("unexpected solve: source=%q err=%v", st.Source, err)
		}
	})
	if avg != 0 {
		t.Fatalf("production-size cache-hit solve allocates %.1f times per run, want 0", avg)
	}
}

// churn10k is the churn-scale solve input: 10 000 applications on a
// four-kind, eight-cores-per-kind machine, each with one of sixteen shared
// two-point tables on one kind (the shape of harpsim.ChurnPlatform(4, 8)
// and its churn tables). arrival returns the next application, cycling
// through the tables.
func churn10k() (plat *platform.Platform, inputs []AppInput, arrival func() AppInput) {
	plat = &platform.Platform{Name: "merge-4x8", MemBWGips: 50, EnergySensors: "package", SimultaneousPMU: true}
	for k := 0; k < 4; k++ {
		plat.Kinds = append(plat.Kinds, platform.CoreKind{
			Name: fmt.Sprintf("K%d", k), Count: 8, SMT: 1,
			MaxFreqGHz: 3 - 0.2*float64(k), MinFreqGHz: 0.5, IPC: 2 - 0.1*float64(k),
			ActiveWatts: 2 - 0.2*float64(k), IdleWatts: 0.2, SleepWatts: 0.02,
		})
	}
	tables := make([]*opoint.Table, 16)
	for i := range tables {
		tbl := &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: plat.Name}
		for cores := 1; cores <= 2; cores++ {
			rv := platform.NewResourceVector(plat)
			rv.Counts[i%4][0] = cores
			tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: (4 + 0.25*float64(i%7)) * float64(cores) * 0.8, Power: 1.5 * float64(cores), Measured: true})
		}
		tables[i] = tbl
	}
	next := 0
	arrival = func() AppInput {
		next++
		return AppInput{ID: fmt.Sprintf("s%06d", next), Table: tables[next%len(tables)]}
	}
	inputs = make([]AppInput, 10000)
	for i := range inputs {
		inputs[i] = arrival()
	}
	return plat, inputs, arrival
}

// BenchmarkIncrementalMerge10k is the incremental merge at churn scale, on
// the churn10k input, driven as the Manager drives it: through the edit
// (AllocateEdit). Each iteration departs two to four applications at random
// positions, appends as many at the tail, and merges; the cadence full solve
// is off, so every solve is a merge. The input edits run inside the timed
// loop. The cache is off.
func BenchmarkIncrementalMerge10k(b *testing.B) { benchmarkMerge10k(b, -1, true) }

// BenchmarkIncrementalMerge10kDerived is BenchmarkIncrementalMerge10k
// through AllocateWithStats, which derives the edit from IDs, as for a
// caller that records none.
func BenchmarkIncrementalMerge10kDerived(b *testing.B) { benchmarkMerge10k(b, -1, false) }

// BenchmarkIncrementalMerge10kCached is BenchmarkIncrementalMerge10k with
// the default solution cache, which an accepted merge never probes.
func BenchmarkIncrementalMerge10kCached(b *testing.B) { benchmarkMerge10k(b, DefaultCacheSize, true) }

func benchmarkMerge10k(b *testing.B, cacheSize int, edit bool) {
	plat, inputs, arrival := churn10k()
	a, err := New(plat, WithIncremental(true), WithCache(cacheSize))
	if err != nil {
		b.Fatal(err)
	}
	a.incFullEvery = 1 << 30
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var ed Edit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 2 + rng.Intn(3)
		ed.Base, ed.Gone = len(inputs), ed.Gone[:0]
		for len(ed.Gone) < n {
			if at := rng.Intn(len(inputs)); !slices.Contains(ed.Gone, at) {
				ed.Gone = append(ed.Gone, at)
			}
		}
		slices.Sort(ed.Gone)
		for k := len(ed.Gone) - 1; k >= 0; k-- {
			inputs = slices.Delete(inputs, ed.Gone[k], ed.Gone[k]+1)
		}
		for k := 0; k < n; k++ {
			inputs = append(inputs, arrival())
		}
		var st Stats
		if edit {
			_, st, err = a.AllocateEdit(inputs, &ed)
		} else {
			_, st, err = a.AllocateWithStats(inputs)
		}
		if err != nil {
			b.Fatal(err)
		}
		if st.Source != SourceIncremental {
			b.Fatalf("solve %d: source %q, want a merge", i, st.Source)
		}
	}
}

// BenchmarkFullSolve10k is the cadence full solve of a churn tick on the
// churn10k input: the full pipeline from λ = 0 over every application,
// re-pinning the solution for the merges that follow. The cache is off, so
// every iteration solves.
func BenchmarkFullSolve10k(b *testing.B) {
	plat, inputs, _ := churn10k()
	a, err := New(plat, WithIncremental(true), WithCache(-1))
	if err != nil {
		b.Fatal(err)
	}
	a.incFullEvery = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := a.AllocateWithStats(inputs)
		if err != nil {
			b.Fatal(err)
		}
		if st.Source != SourceCold {
			b.Fatalf("solve %d: source %q, want a full solve", i, st.Source)
		}
	}
}
