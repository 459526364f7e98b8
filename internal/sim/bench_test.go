package sim

import (
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
)

// BenchmarkMachineStep measures one simulation quantum with five running
// applications — the inner loop of every experiment.
func BenchmarkMachineStep(b *testing.B) {
	m, err := New(platform.RaptorLake(), spreadSched{})
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		prof := computeProfile(1e12)
		prof.MemBound = 0.1 + 0.15*float64(i) // mixed memory intensity
		if _, err := m.Start(prof, name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSecond measures simulating one virtual second.
func BenchmarkMachineSecond(b *testing.B) {
	m, err := New(platform.RaptorLake(), spreadSched{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Start(computeProfile(1e12), "a"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
