package alloc

import (
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// cacheInputs builds a small two-app workload on the Odroid platform.
func cacheInputs(t *testing.T, p *platform.Platform) []AppInput {
	t.Helper()
	suite := workload.NASOdroid()
	var inputs []AppInput
	for _, prof := range suite[:2] {
		inputs = append(inputs, AppInput{ID: prof.Name, Table: tableFor(p, prof)})
	}
	return inputs
}

func TestFingerprintStability(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	inputs := cacheInputs(t, p)

	fp1, ok := a.fingerprintInputs(inputs)
	if !ok {
		t.Fatal("fingerprint not computed")
	}
	fp2, ok := a.fingerprintInputs(inputs)
	if !ok || fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %v vs %v", fp1, fp2)
	}

	// A second allocator over content-equal tables (different pointers) must
	// agree: the cache is content-addressed, not identity-addressed.
	b := newAllocator(t, p, WithCache(4))
	inputs2 := cacheInputs(t, p)
	fp3, ok := b.fingerprintInputs(inputs2)
	if !ok || fp1 != fp3 {
		t.Fatalf("content-equal inputs fingerprint differently: %v vs %v", fp1, fp3)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	base := cacheInputs(t, p)
	fp0, ok := a.fingerprintInputs(base)
	if !ok {
		t.Fatal("fingerprint not computed")
	}
	distinct := map[Fingerprint]string{fp0: "base"}
	record := func(label string, fp Fingerprint) {
		if prev, dup := distinct[fp]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		distinct[fp] = label
	}

	// App identity.
	renamed := append([]AppInput(nil), base...)
	renamed[0].ID = "bt2"
	fp, _ := a.fingerprintInputs(renamed)
	record("renamed app", fp)

	// v* override.
	vstar := append([]AppInput(nil), base...)
	vstar[0].MaxUtility = 123.0
	fp, _ = a.fingerprintInputs(vstar)
	record("MaxUtility override", fp)

	// App order (the solver is order-sensitive through repair).
	swapped := []AppInput{base[1], base[0]}
	fp, _ = a.fingerprintInputs(swapped)
	record("swapped order", fp)

	// Subset.
	fp, _ = a.fingerprintInputs(base[:1])
	record("subset", fp)

	// Table content: an Upsert drops the table facts and changes the hash.
	mutated := cacheInputs(t, p)
	pt := mutated[0].Table.Points[0]
	pt.Utility *= 1.5
	mutated[0].Table.Upsert(pt)
	fp, _ = a.fingerprintInputs(mutated)
	record("mutated table", fp)

	// Solver configuration is part of the base hash.
	g := newAllocator(t, p, WithCache(4), WithMethod(Greedy))
	fpG, _ := g.fingerprintInputs(base)
	record("greedy method", fpG)
}

func TestFingerprintTracksTableVersion(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	inputs := cacheInputs(t, p)
	fp0, _ := a.fingerprintInputs(inputs)

	// Mutate through Upsert: the table's memoised hash must refresh.
	pt := inputs[0].Table.Points[0]
	pt.Power += 1.0
	inputs[0].Table.Upsert(pt)
	fp1, _ := a.fingerprintInputs(inputs)
	if fp0 == fp1 {
		t.Fatal("table mutation did not change the fingerprint")
	}

	// Restore the original point value: content equality must restore the
	// Fingerprint even though the table was mutated twice.
	pt.Power -= 1.0
	inputs[0].Table.Upsert(pt)
	fp2, _ := a.fingerprintInputs(inputs)
	if fp0 != fp2 {
		t.Fatal("restored table content did not restore the fingerprint")
	}
}

func TestSolutionCacheHitIsIdentical(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	inputs := cacheInputs(t, p)

	first, st1, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Source != SourceCold {
		t.Fatalf("first solve source = %q, want %q", st1.Source, SourceCold)
	}
	second, st2, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Source != SourceCached {
		t.Fatalf("second solve source = %q, want %q", st2.Source, SourceCached)
	}
	if st2.LambdaIters != 0 {
		t.Fatalf("cache hit reported %d λ iterations", st2.LambdaIters)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached solution differs from the original solve")
	}
	if st2.Apps != st1.Apps || st2.Candidates != st1.Candidates || st2.CoAllocated != st1.CoAllocated {
		t.Fatalf("cached stats diverge: %+v vs %+v", st2, st1)
	}
	cs := a.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Size != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / size 1", cs)
	}
}

func TestSolutionCacheMissesOnChange(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(8))
	inputs := cacheInputs(t, p)
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		t.Fatal(err)
	}

	// A table mutation must miss and produce a fresh (possibly different)
	// solution rather than serving the stale one.
	pt := inputs[0].Table.Points[0]
	pt.Utility *= 2
	inputs[0].Table.Upsert(pt)
	_, st, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source == SourceCached {
		t.Fatal("mutated input served from cache")
	}
	if cs := a.CacheStats(); cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("cache stats = %+v, want 2 misses", cs)
	}
}

func TestSolutionCacheEviction(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(2))
	base := cacheInputs(t, p)

	// Three distinct fingerprints through distinct MaxUtility overrides.
	for i := 1; i <= 3; i++ {
		in := append([]AppInput(nil), base...)
		in[0].MaxUtility = float64(i * 100)
		if _, _, err := a.AllocateWithStats(in); err != nil {
			t.Fatal(err)
		}
	}
	cs := a.CacheStats()
	if cs.Size != 2 || cs.Evictions != 1 {
		t.Fatalf("cache stats = %+v, want size 2 / 1 eviction", cs)
	}
	// The oldest entry (i=1) was evicted; i=3 and i=2 remain. Probe the
	// resident entry first — probing the evicted one is itself a miss that
	// inserts and evicts again.
	in := append([]AppInput(nil), base...)
	in[0].MaxUtility = 200
	if _, st, _ := a.AllocateWithStats(in); st.Source != SourceCached {
		t.Fatal("resident entry missed")
	}
	in[0].MaxUtility = 100
	if _, st, _ := a.AllocateWithStats(in); st.Source == SourceCached {
		t.Fatal("evicted entry served")
	}
}

func TestCacheExportSeedRoundTrip(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	inputs := cacheInputs(t, p)
	want, _, err := a.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	dump := a.ExportCache(0)
	if len(dump) != 1 {
		t.Fatalf("exported %d entries, want 1", len(dump))
	}

	// A fresh allocator seeded with the dump serves the first solve from
	// cache — the warm-restart contract.
	b := newAllocator(t, p, WithCache(4))
	b.SeedCache(dump)
	got, st, err := b.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != SourceCached {
		t.Fatalf("seeded allocator solve source = %q, want %q", st.Source, SourceCached)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("seeded solution differs from the original")
	}
	// Seeding must not pollute the workload accounting.
	if cs := b.CacheStats(); cs.Hits != 1 || cs.Misses != 0 {
		t.Fatalf("seeded cache stats = %+v, want 1 hit / 0 misses", cs)
	}

	// Seeding a cache-less allocator is a no-op, not a panic.
	c := newAllocator(t, p)
	c.SeedCache(dump)
	if cs := c.CacheStats(); cs.Cap != 0 {
		t.Fatalf("cache-less allocator reports cache %+v", cs)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p)
	inputs := cacheInputs(t, p)
	for i := 0; i < 2; i++ {
		_, st, err := a.AllocateWithStats(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Source != SourceCold {
			t.Fatalf("solve %d source = %q, want %q", i, st.Source, SourceCold)
		}
	}
	if cs := a.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("cache stats %+v without a cache", cs)
	}
}

func TestCacheMetrics(t *testing.T) {
	p := platform.OdroidXU3()
	reg := telemetry.NewRegistry()
	m := telemetry.NewMetrics(reg)
	a := newAllocator(t, p, WithCache(1), WithMetrics(m))
	base := cacheInputs(t, p)

	if _, _, err := a.AllocateWithStats(base); err != nil { // miss
		t.Fatal(err)
	}
	if _, _, err := a.AllocateWithStats(base); err != nil { // hit
		t.Fatal(err)
	}
	in := append([]AppInput(nil), base...)
	in[0].MaxUtility = 42
	if _, _, err := a.AllocateWithStats(in); err != nil { // miss + eviction
		t.Fatal(err)
	}
	if got := m.AllocCacheHits.Value(); got != 1 {
		t.Errorf("hits counter = %d, want 1", got)
	}
	if got := m.AllocCacheMisses.Value(); got != 2 {
		t.Errorf("misses counter = %d, want 2", got)
	}
	if got := m.AllocCacheEvictions.Value(); got != 1 {
		t.Errorf("evictions counter = %d, want 1", got)
	}
}

// TestCacheHitZeroAllocs pins the steady-state contract: a cache-hit solve
// performs zero heap allocations.
func TestCacheHitZeroAllocs(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	inputs := cacheInputs(t, p)
	if _, _, err := a.AllocateWithStats(inputs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, st, err := a.AllocateWithStats(inputs); err != nil || st.Source != SourceCached {
			t.Fatalf("unexpected solve: source=%q err=%v", st.Source, err)
		}
	})
	if avg != 0 {
		t.Fatalf("cache-hit solve allocates %.1f times per run, want 0", avg)
	}
}
