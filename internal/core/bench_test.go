package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// BenchmarkTick10k is one adaptation tick of a coalesced, incremental
// Manager at 10 000 sessions on a four-kind, eight-cores-per-kind machine
// with sixteen shared two-point tables: about ten events per tick —
// arrivals with their table upload, departures at random positions and
// phase changes, the population held near 10 000 — then the tick's epoch.
// A degraded epoch fails the benchmark: the tick it measures is the
// healthy one.
func BenchmarkTick10k(b *testing.B) {
	p := &platform.Platform{Name: "tick-4x8", MemBWGips: 50, EnergySensors: "package", SimultaneousPMU: true}
	for k := 0; k < 4; k++ {
		p.Kinds = append(p.Kinds, platform.CoreKind{
			Name: fmt.Sprintf("K%d", k), Count: 8, SMT: 1,
			MaxFreqGHz: 3 - 0.2*float64(k), MinFreqGHz: 0.5, IPC: 2 - 0.1*float64(k),
			ActiveWatts: 2 - 0.2*float64(k), IdleWatts: 0.2, SleepWatts: 0.02,
		})
	}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	tables := make([]*opoint.Table, 16)
	for i := range tables {
		tables[i] = &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: p.Name}
		for cores := 1; cores <= 2; cores++ {
			rv := platform.NewResourceVector(p)
			rv.Counts[i%4][0] = cores
			tables[i].Upsert(opoint.OperatingPoint{Vector: rv, Utility: (4 + 0.25*float64(i%7)) * float64(cores) * 0.8, Power: 1.5 * float64(cores), Measured: true})
		}
	}
	m, err := NewManager(Config{
		Platform:           p,
		DisableExploration: true,
		Coalesce:           CoalescePolicy{Enabled: true},
		AllocIncremental:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var live []string
	next := 0
	arrive := func() {
		id, t := fmt.Sprintf("s%06d", next), tables[next%len(tables)]
		next++
		if err := m.Register(id, t.App, workload.Scalable, false); err != nil {
			b.Fatal(err)
		}
		if err := m.UploadTable(id, t); err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
	}
	rng := rand.New(rand.NewSource(1))
	tick := func() {
		for e := 0; e < 10; e++ {
			switch r := rng.Intn(20); {
			case r < 7 || len(live) < 9990:
				arrive()
			case r < 14:
				i := rng.Intn(len(live))
				if err := m.Deregister(live[i]); err != nil {
					b.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				if err := m.PhaseChange(live[rng.Intn(len(live))], fmt.Sprintf("ph%d", e%4)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := m.Tick(); err != nil {
			b.Fatal(err)
		}
		if rung := m.DegradedRung(); rung != "" {
			b.Fatalf("degraded epoch (%s): %s", rung, m.LastEpochError())
		}
	}
	for len(live) < 10000 {
		arrive()
	}
	for i := 0; i < 20; i++ {
		tick()
	}
	sources := map[string]int{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
		sources[m.LastSolveSource()]++
	}
	b.StopTimer()
	if b.N >= 200 && sources[alloc.SourceIncremental] < b.N/2 {
		b.Fatalf("solve sources %v: most ticks should merge", sources)
	}
}
