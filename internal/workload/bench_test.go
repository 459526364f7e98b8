package workload

import (
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// BenchmarkRespond measures one behaviour-model evaluation on a full-machine
// placement — called twice per application per simulation quantum.
func BenchmarkRespond(b *testing.B) {
	plat := platform.RaptorLake()
	prof, err := ByName(IntelApps(), "ft.C")
	if err != nil {
		b.Fatal(err)
	}
	slots := SlotsForVector(plat, plat.Capacity())
	cond := Conditions{MemBWGips: plat.MemBWGips}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := prof.Respond(plat, slots, cond, nil)
		if resp.UsefulRate <= 0 {
			b.Fatal("no progress")
		}
	}
}

// BenchmarkEvaluateVector measures the closed-form evaluator used by offline
// DSE and the Fig. 1 sweep.
func BenchmarkEvaluateVector(b *testing.B) {
	plat := platform.RaptorLake()
	prof, err := ByName(IntelApps(), "mg.C")
	if err != nil {
		b.Fatal(err)
	}
	rv := plat.Capacity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := EvaluateVector(plat, prof, rv)
		if ev.TimeSec <= 0 {
			b.Fatal("bad evaluation")
		}
	}
}
