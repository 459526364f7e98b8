package harp

import (
	"fmt"
	"io"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// newMeasureServer builds a server with registered stable sessions but no
// network: measureOnce can then be driven directly, isolating the 50 ms hot
// path. Exploration is disabled so measurements hit the stable-stage branch
// (the steady state a long-running deployment spends its time in).
func newMeasureServer(tb testing.TB, cfg ServerConfig) *Server {
	tb.Helper()
	cfg.Platform = platform.RaptorLake()
	cfg.DisableExploration = true
	cfg.Sampler = fixedSampler{utility: 120, power: 35}
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		app := fmt.Sprintf("app%d", i)
		instance := fmt.Sprintf("%s/%d", app, i+1)
		srv.addSessionLocked(instance, &serverSession{instance: instance, pid: i + 1})
		if err := srv.mgr.Register(instance, app, workload.Scalable, false); err != nil {
			tb.Fatal(err)
		}
	}
	return srv
}

// TestMeasureOnceZeroAllocsWhenDisabled pins the zero-cost-when-disabled
// contract: with no tracer/metrics/journal configured, the measure tick must
// not allocate at all. The run count stays below the reallocation cadence
// (100 stable measurements) so the periodic allocator run — which legitimately
// allocates — stays out of the measurement.
func TestMeasureOnceZeroAllocsWhenDisabled(t *testing.T) {
	srv := newMeasureServer(t, ServerConfig{})
	srv.measureOnce() // warm scratch state
	allocs := testing.AllocsPerRun(40, srv.measureOnce)
	if allocs != 0 {
		t.Errorf("measureOnce with telemetry disabled allocates %v/op, want 0", allocs)
	}
}

func BenchmarkMeasureOnce(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		srv := newMeasureServer(b, ServerConfig{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.measureOnce()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		srv := newMeasureServer(b, ServerConfig{
			Tracer:  telemetry.NewTracer(0),
			Metrics: telemetry.NewMetrics(telemetry.NewRegistry()),
			Journal: telemetry.NewJournal(io.Discard),
			Energy:  telemetry.NewEnergyLedger(),
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.measureOnce()
		}
	})
}
