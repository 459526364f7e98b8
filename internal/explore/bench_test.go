package explore

import (
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// benchExplorer returns a Raptor Lake explorer with measured points taken
// by its own Next, plus its full caps.
func benchExplorer(b *testing.B, measured int) (*Explorer, []int) {
	plat := platform.RaptorLake()
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.3, SerialFrac: 0.02, DynamicLoad: true, Wait: workload.Block,
	}
	e := New(plat, "x", Config{MeasurementsPerPoint: 1})
	caps := []int{plat.Kinds[0].Count, plat.Kinds[1].Count}
	for i := 0; i < measured; i++ {
		rv, err := e.Next(caps)
		if err != nil {
			b.Fatal(err)
		}
		ev := workload.EvaluateVector(plat, prof, rv)
		if _, err := e.Record(ev.Utility, ev.PowerWatts); err != nil {
			b.Fatal(err)
		}
	}
	return e, caps
}

// BenchmarkExplorerNext measures choosing the next configuration over
// Raptor Lake's 764, in the initial stage (farthest point) and in the
// refinement stage (model fits and predictions for every candidate).
func BenchmarkExplorerNext(b *testing.B) {
	for _, bc := range []struct {
		name     string
		measured int
	}{{"initial", 4}, {"refinement", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			e, caps := benchExplorer(b, bc.measured)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Next(caps); err != nil {
					b.Fatal(err)
				}
				e.Abort()
			}
		})
	}
}

// BenchmarkPredictedTable measures building the allocator's table on Raptor
// Lake, uncached: predictions for the ~750 configurations a 16-point table
// lacks, and a copy of a table that covers the space.
func BenchmarkPredictedTable(b *testing.B) {
	partial, _ := benchExplorer(b, 16)
	covering, _ := benchExplorer(b, 16)
	full := &opoint.Table{App: "x", Platform: covering.plat.Name}
	for i, rv := range platform.EnumerateVectors(covering.plat, 0) {
		full.Upsert(opoint.OperatingPoint{Vector: rv, Utility: float64(1 + i%7), Power: 1})
	}
	covering.SeedTable(full)
	for _, bc := range []struct {
		name string
		e    *Explorer
	}{{"partial", partial}, {"covering", covering}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.e.predictedTable()
			}
		})
	}
}
