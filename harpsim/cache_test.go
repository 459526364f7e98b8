package harpsim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/telemetry"
)

// TestCacheTransparentInSimulation is the end-to-end half of the cache's
// decision-transparency contract: the same seeded scenario run with the
// solution cache disabled and enabled (the default) must produce identical
// simulation results and journals that agree on every field except the solve
// bookkeeping (lambda_iters, solve_source) — and the default run must
// actually serve some epochs from the cache.
func TestCacheTransparentInSimulation(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	run := func(allocator core.Allocator) (*Result, []telemetry.EpochRecord) {
		var jbuf bytes.Buffer
		res := mustRun(t, sc, Options{
			Policy:        PolicyHARPOffline,
			OfflineTables: tables,
			Seed:          5,
			Journal:       telemetry.NewJournal(&jbuf),
			allocator:     allocator,
		})
		recs, err := telemetry.ReadJournal(bytes.NewReader(jbuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return res, recs
	}
	uncached, err := alloc.New(sc.Platform) // no WithCache: caching off
	if err != nil {
		t.Fatal(err)
	}
	off, offRecs := run(uncached)
	on, onRecs := run(nil)

	if off.MakespanSec != on.MakespanSec || off.EnergyJ != on.EnergyJ {
		t.Errorf("cache changed the simulation: makespan %.4f vs %.4f, energy %.1f vs %.1f",
			off.MakespanSec, on.MakespanSec, off.EnergyJ, on.EnergyJ)
	}
	if len(offRecs) != len(onRecs) {
		t.Fatalf("journal length diverges: %d epochs without cache, %d with", len(offRecs), len(onRecs))
	}
	var cachedEpochs int
	for i := range onRecs {
		a, b := offRecs[i], onRecs[i]
		if b.SolveSource == "cached" {
			cachedEpochs++
		}
		if a.SolveSource == "cached" {
			t.Fatalf("epoch %d: cache-disabled run reports a cached solve", a.Epoch)
		}
		a.LambdaIters, b.LambdaIters = 0, 0
		a.SolveSource, b.SolveSource = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d diverges beyond solve bookkeeping:\nno cache: %+v\ncached:   %+v", a.Epoch, a, b)
		}
	}
	if cachedEpochs == 0 {
		t.Error("no epoch was served from the cache — the default path is not exercising it")
	}
}
