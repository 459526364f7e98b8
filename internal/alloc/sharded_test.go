package alloc

import (
	"fmt"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

func shardTestPlatform(t *testing.T, kinds int) *platform.Platform {
	t.Helper()
	p := &platform.Platform{
		Name:            "shard-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
	}
	for k := 0; k < kinds; k++ {
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

// shardTestInputs spreads n single-kind apps round-robin over the platform's
// kinds, so every kind forms its own allocation domain.
func shardTestInputs(t *testing.T, p *platform.Platform, n int) []AppInput {
	t.Helper()
	inputs := make([]AppInput, n)
	for i := range inputs {
		id := fmt.Sprintf("app%02d", i)
		inputs[i] = AppInput{ID: id, Table: incTestTable(t, p, id, i%len(p.Kinds), 4+float64(i%5))}
	}
	return inputs
}

func assertSameAllocations(t *testing.T, a, b []Allocation) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("allocation count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Point.Vector.Equal(b[i].Point.Vector) ||
			a[i].CoAllocated != b[i].CoAllocated || len(a[i].Grants) != len(b[i].Grants) {
			t.Fatalf("allocation %d differs: %s %s vs %s %s",
				i, a[i].ID, a[i].Point.Vector.Key(), b[i].ID, b[i].Point.Vector.Key())
		}
		for j := range a[i].Grants {
			if a[i].Grants[j] != b[i].Grants[j] {
				t.Fatalf("grants differ for %s at %d", a[i].ID, j)
			}
		}
	}
}

// TestShardedDeterministicAcrossParallelism pins the parallel.Map contract
// end to end: worker count must not change the merged result.
func TestShardedDeterministicAcrossParallelism(t *testing.T) {
	p := shardTestPlatform(t, 3)
	inputs := shardTestInputs(t, p, 12)

	serial, err := NewSharded(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSharded(p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sa, sst, err := serial.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	wa, wst, err := wide.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if sst.Source != SourceSharded || wst.Source != SourceSharded {
		t.Fatalf("sources %q/%q, want %q", sst.Source, wst.Source, SourceSharded)
	}
	assertSameAllocations(t, sa, wa)
	assertStructurallyValid(t, p, inputs, sa)
}

// TestShardedPartitionsDisjointKinds pins the partition itself: single-kind
// apps on a 2-kind platform form two domains (plus the eagerly built
// whole-platform child), and the merged result is structurally valid.
func TestShardedPartitionsDisjointKinds(t *testing.T) {
	p := shardTestPlatform(t, 2)
	s, err := NewSharded(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := shardTestInputs(t, p, 8)
	allocs, stats, err := s.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source != SourceSharded {
		t.Fatalf("source = %q, want %q", stats.Source, SourceSharded)
	}
	// Eager all-kinds child + one child per single-kind domain.
	if got := s.Domains(); got != 3 {
		t.Fatalf("Domains() = %d, want 3 (all-kinds + 2 domains)", got)
	}
	assertStructurallyValid(t, p, inputs, allocs)
	for i := range allocs {
		if allocs[i].Point.Vector.IsZero() && !allocs[i].CoAllocated {
			t.Fatalf("%s got no resources on an uncontended platform", allocs[i].ID)
		}
	}
}

// TestShardedSingleDomainDelegates pins the delegation path: when every app
// lives in one domain the child solves directly and its source label (cold,
// cache...) is preserved, so a sharded manager on a single-kind workload
// behaves exactly like an unsharded one.
func TestShardedSingleDomainDelegates(t *testing.T) {
	p := shardTestPlatform(t, 2)
	s, err := NewSharded(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]AppInput, 4)
	for i := range inputs {
		id := fmt.Sprintf("solo%d", i)
		inputs[i] = AppInput{ID: id, Table: incTestTable(t, p, id, 0, 5)}
	}
	allocs, stats, err := s.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source == SourceSharded {
		t.Fatalf("single-domain solve labelled %q; want the child's own source", stats.Source)
	}
	assertStructurallyValid(t, p, inputs, allocs)
}

// TestShardedBridgingAppMergesDomains pins the union-find: one app whose
// table spans both kinds links them into a single component, collapsing the
// partition to one domain.
func TestShardedBridgingAppMergesDomains(t *testing.T) {
	p := shardTestPlatform(t, 2)
	s, err := NewSharded(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := shardTestInputs(t, p, 4)
	bridge := &opoint.Table{App: "bridge", Platform: p.Name}
	rv := platform.NewResourceVector(p)
	rv.Counts[0][0] = 1
	rv.Counts[1][0] = 1
	bridge.Upsert(opoint.OperatingPoint{Vector: rv, Utility: 6, Power: 2, Measured: true})
	inputs = append(inputs, AppInput{ID: "bridge", Table: bridge})

	allocs, stats, err := s.AllocateWithStats(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Source == SourceSharded {
		t.Fatalf("bridged workload still partitioned (source %q)", stats.Source)
	}
	assertStructurallyValid(t, p, inputs, allocs)
}

// TestShardedRejectsPowerCap: the positional power-cap parameter only
// accepts 0 now that no cross-domain power coordinator exists.
func TestShardedRejectsPowerCap(t *testing.T) {
	p := shardTestPlatform(t, 2)
	if _, err := NewSharded(p, 2, 10); err == nil {
		t.Fatal("NewSharded accepted a non-zero power cap")
	}
	if _, err := NewSharded(p, 2, 0); err != nil {
		t.Fatalf("NewSharded with no cap: %v", err)
	}
}
