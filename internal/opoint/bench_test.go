package opoint

import (
	"math/rand"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// benchTable builds a full-size (764-point) table with plausible
// characteristics.
func benchTable(b *testing.B) *Table {
	b.Helper()
	plat := platform.RaptorLake()
	rng := rand.New(rand.NewSource(1))
	tbl := &Table{App: "bench", Platform: plat.Name}
	for _, rv := range platform.EnumerateVectors(plat, 0) {
		threads := float64(rv.Threads())
		tbl.Points = append(tbl.Points, OperatingPoint{
			Vector:  rv,
			Utility: threads * (8 + rng.Float64()),
			Power:   threads * (3 + rng.Float64()),
		})
	}
	return tbl
}

// BenchmarkParetoFilter measures the allocator's hot path: 4-objective
// Pareto filtering of a full operating-point table.
func BenchmarkParetoFilter(b *testing.B) {
	tbl := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := tbl.ParetoPoints(); len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkPareto764 measures one unmemoised front computation over a
// full-size table, as the allocator runs it when a table holds unusable
// points.
func BenchmarkPareto764(b *testing.B) {
	tbl := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := Pareto(tbl.Points, RuntimeObjectives); len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkRuntimeFront764 is BenchmarkPareto764 through the demand-grid
// front the allocator and ParetoPoints use.
func BenchmarkRuntimeFront764(b *testing.B) {
	tbl := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := runtimeFront(tbl.Points, nil, 0); len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkTableLookup measures point lookup by resource vector.
func BenchmarkTableLookup(b *testing.B) {
	tbl := benchTable(b)
	needle := tbl.Points[len(tbl.Points)/2].Vector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(needle); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkCost measures the energy-utility cost evaluation (Eq. 2).
func BenchmarkCost(b *testing.B) {
	tbl := benchTable(b)
	vstar := tbl.MaxUtility()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, op := range tbl.Points {
			sum += op.Cost(vstar)
		}
		if sum <= 0 {
			b.Fatal("degenerate costs")
		}
	}
}
