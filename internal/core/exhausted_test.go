package core

import (
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// pinnedAllocator grants each application a fixed set of cores (one
// hardware thread each) and counts its solves, so a test controls every
// exploration bound exactly and can count reallocations.
type pinnedAllocator struct {
	plat   *platform.Platform
	cores  map[string][]int
	solves int
}

func (a *pinnedAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	a.solves++
	out := make([]alloc.Allocation, len(apps))
	for i, in := range apps {
		rv := platform.NewResourceVector(a.plat)
		out[i].ID = in.ID
		for _, c := range a.cores[in.ID] {
			kind, err := a.plat.KindOf(c)
			if err != nil {
				return nil, alloc.Stats{}, err
			}
			rv.Counts[kind][0]++
			out[i].Grants = append(out[i].Grants, alloc.CoreGrant{Core: c, Threads: 1})
		}
		out[i].Point = opoint.OperatingPoint{Vector: rv, Utility: 1, Power: 1}
	}
	return out, alloc.Stats{Apps: len(apps), Source: alloc.SourceCold}, nil
}

// TestExhaustedBoundWaitsForCadence pins the exhausted-bound rule: an
// exploring session whose bound holds no unmeasured configuration counts its
// samples toward the ReallocEvery cadence instead of forcing a reallocation
// per sample, and any epoch that widens its bound — a deregistration that
// frees cores — lets it probe again. Quarantine with readmission and a
// phase change still restart exploration afterwards.
func TestExhaustedBoundWaitsForCadence(t *testing.T) {
	p := churnTestPlatform(t) // cores 0–3 P, 4–7 E
	full := &opoint.Table{App: "hog", Platform: p.Name}
	for _, rv := range platform.EnumerateVectors(p, 0) {
		full.Upsert(opoint.OperatingPoint{Vector: rv, Utility: float64(rv.TotalCores()), Power: float64(rv.TotalCores()), Measured: true})
	}
	pinned := &pinnedAllocator{plat: p, cores: map[string][]int{
		"hog": {1, 2, 3, 4, 5, 6, 7}, // stable, and leaves no free core
		"x":   {0},                   // a bound of one P-core: a single configuration
	}}
	const reallocEvery = 10
	m, err := NewManager(Config{
		Platform:      p,
		Allocator:     pinned,
		OfflineTables: map[string]*opoint.Table{"hog": full},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.explore.MeasurementsPerPoint = 1
	m.reallocEvery = reallocEvery
	rec := newRecorder(m)
	for _, id := range []string{"hog", "x"} {
		if err := m.Register(id, id, workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	if !rec.last["x"].Exploring {
		t.Fatalf("x's first decision is not a probe: %+v", rec.last["x"])
	}
	measured := func() int {
		t.Helper()
		tbl, err := m.Table("x")
		if err != nil {
			t.Fatal(err)
		}
		return tbl.MeasuredCount()
	}

	// The first sample commits x's only configuration; the other 999 find
	// nothing left to explore in its bound.
	const samples = 1000
	before := pinned.solves
	for i := 0; i < samples; i++ {
		if err := m.Measure("x", 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got, limit := pinned.solves-before, (samples+reallocEvery-1)/reallocEvery+1; got > limit {
		t.Errorf("%d samples with an exhausted bound cost %d reallocations, want ≤ %d", samples, got, limit)
	}
	if got := measured(); got != 1 {
		t.Fatalf("x measured %d configurations, want 1", got)
	}
	if stageOf(t, m, "x") == explore.StageStable {
		t.Fatal("x graduated; the fixture needs it still exploring")
	}
	if rec.last["x"].Exploring {
		t.Errorf("x still holds a probe with nothing left to explore: %+v", rec.last["x"])
	}

	// Freeing the hog's cores widens x's bound: the deregistration epoch
	// starts a probe, and the next sample commits it.
	if err := m.Deregister("hog"); err != nil {
		t.Fatal(err)
	}
	if !rec.last["x"].Exploring {
		t.Fatalf("x did not probe after the deregistration freed cores: %+v", rec.last["x"])
	}
	if err := m.Measure("x", 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := measured(); got != 2 {
		t.Fatalf("x measured %d configurations after the deregistration, want 2", got)
	}

	restarts := func(what string, event func() error) {
		t.Helper()
		if err := event(); err != nil {
			t.Fatal(err)
		}
		if !rec.last["x"].Exploring {
			t.Fatalf("x holds no probe after %s: %+v", what, rec.last["x"])
		}
		n := measured()
		if err := m.Measure("x", 1, 1); err != nil {
			t.Fatal(err)
		}
		if got := measured(); got != n+1 {
			t.Errorf("the first sample after %s committed no point (%d measured, want %d)", what, got, n+1)
		}
	}
	restarts("quarantine and readmission", func() error {
		if err := m.SetLiveness("x", LivenessQuarantined, "silent"); err != nil {
			return err
		}
		if d := rec.last["x"]; d.Exploring || len(d.Grants) != 0 {
			t.Fatalf("quarantined x was not parked: %+v", d)
		}
		return m.SetLiveness("x", LivenessLive, "resumed")
	})
	restarts("a phase change", func() error { return m.PhaseChange("x", "phase-2") })
}
