package monitor

import (
	"math"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sched"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

func newMachine(t *testing.T, plat *platform.Platform) *sim.Machine {
	t.Helper()
	m, err := sim.New(plat, sched.CFS{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func prof(name string, work, mem float64) *workload.Profile {
	return &workload.Profile{
		Name:        name,
		Adaptivity:  workload.Scalable,
		WorkGI:      work,
		MemBound:    mem,
		SMTFriendly: 0.5,
		DynamicLoad: true,
		Wait:        workload.Block,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestSampleMeasuresIPSAndPower(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	p, err := m.Start(prof("a", 1e6, 0.1), "")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(m, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	mon.noise = 0
	if err := mon.Track(p.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := mon.Sample()
	meas, ok := got[p.ID()]
	if !ok {
		t.Fatal("no measurement for tracked process")
	}
	if meas.IPS <= 0 || meas.PowerW <= 0 {
		t.Fatalf("measurement = %+v, want positive IPS and power", meas)
	}
	if meas.UsefulRate <= 0 || meas.UsefulRate > meas.IPS+1e-9 {
		t.Errorf("useful rate %g outside (0, IPS %g]", meas.UsefulRate, meas.IPS)
	}
	// Attributed power cannot exceed what the whole package drew.
	if pkgW := m.Energy().PackageJ / (500 * time.Millisecond).Seconds(); meas.PowerW > pkgW {
		t.Errorf("attributed power %g W above package power %g W", meas.PowerW, pkgW)
	}
}

func TestSampleWithoutElapsedTime(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	mon, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Sample(); len(got) != 0 {
		t.Fatalf("Sample with no elapsed time = %v, want empty", got)
	}
}

func TestTrackUnknownProcess(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	mon, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Track(sim.ProcID(42)); err == nil {
		t.Error("tracking unknown process accepted")
	}
}

func TestAttributionSplitsByActivity(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	// Big compute app and a small one — the big one must receive more energy.
	big, err := m.Start(prof("big", 1e6, 0.05), "")
	if err != nil {
		t.Fatal(err)
	}
	small := prof("small", 1e6, 0.05)
	small.DefaultThreads = 2
	sm, err := m.Start(small, "")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	mon.noise = 0
	for _, id := range []sim.ProcID{big.ID(), sm.ID()} {
		if err := mon.Track(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	got := mon.Sample()
	if got[big.ID()].PowerW <= got[sm.ID()].PowerW {
		t.Errorf("big app power %.1f W not above small app %.1f W",
			got[big.ID()].PowerW, got[sm.ID()].PowerW)
	}
}

// The P/E power coefficients must attribute more energy per busy second to
// P-cores than to E-cores (Eq. 3).
func TestAttributionUsesKindCoefficients(t *testing.T) {
	plat := platform.RaptorLake()
	run := func(kind platform.KindID) float64 {
		m := newMachine(t, plat)
		a := prof("a", 1e6, 0.05)
		a.DefaultThreads = 4
		p, err := m.Start(a, "")
		if err != nil {
			t.Fatal(err)
		}
		var hw []sim.HWThread
		for _, info := range m.Topology() {
			if info.Kind == kind && len(hw) < 4 {
				hw = append(hw, info.ID)
			}
		}
		if err := m.SetAffinity(p.ID(), hw); err != nil {
			t.Fatal(err)
		}
		mon, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		mon.noise = 0
		if err := mon.Track(p.ID()); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return mon.Sample()[p.ID()].PowerW
	}
	onP := run(0)
	onE := run(1)
	if onP <= onE {
		t.Errorf("power on P cores %.2f W not above E cores %.2f W", onP, onE)
	}
}

// Attribution against ground truth: for a single app running alone, the
// attributed dynamic energy should be within ~25 % of the process's true
// dynamic energy (the paper reports 8.76 % MAPE in multi-app scenarios).
func TestAttributionAccuracy(t *testing.T) {
	for _, plat := range []*platform.Platform{platform.RaptorLake(), platform.OdroidXU3()} {
		t.Run(plat.Name, func(t *testing.T) {
			m := newMachine(t, plat)
			p, err := m.Start(prof("a", 1e9, 0.2), "")
			if err != nil {
				t.Fatal(err)
			}
			mon, err := New(m)
			if err != nil {
				t.Fatal(err)
			}
			mon.noise = 0
			if err := mon.Track(p.ID()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := m.Run(50 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				mon.Sample()
			}
			truth := p.Counters().DynEnergyJ
			got := mon.Untrack(p.ID())
			if truth <= 0 {
				t.Fatal("no ground-truth energy")
			}
			rel := math.Abs(got-truth) / truth
			if rel > 0.25 {
				t.Errorf("attributed %.1f J vs truth %.1f J: %.0f%% error", got, truth, 100*rel)
			}
		})
	}
}

func TestUntrackReturnsTotal(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	p, err := m.Start(prof("a", 1e6, 0.1), "")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	mon.noise = 0
	if err := mon.Track(p.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	mon.Sample()
	total := mon.Untrack(p.ID())
	if total <= 0 {
		t.Errorf("Untrack total = %g, want > 0", total)
	}
	if len(mon.apps) != 0 {
		t.Errorf("%d processes tracked after Untrack", len(mon.apps))
	}
	if again := mon.Untrack(p.ID()); again != 0 {
		t.Errorf("second Untrack = %g, want 0", again)
	}
}

func TestSmoothingAndReset(t *testing.T) {
	m := newMachine(t, platform.RaptorLake())
	p, err := m.Start(prof("a", 1e6, 0.1), "")
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(m, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	mon.noise = 0.1
	if err := mon.Track(p.ID()); err != nil {
		t.Fatal(err)
	}
	var lastSmoothed float64
	for i := 0; i < 10; i++ {
		if err := m.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		meas := mon.Sample()[p.ID()]
		lastSmoothed = meas.SmoothedIPS
	}
	if lastSmoothed <= 0 {
		t.Fatal("no smoothed IPS")
	}
	mon.ResetSmoothing(p.ID())
	if err := m.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	meas := mon.Sample()[p.ID()]
	// After a reset the EMA primes directly from the raw sample.
	if meas.SmoothedIPS != meas.IPS {
		t.Errorf("after reset smoothed %.2f ≠ raw %.2f", meas.SmoothedIPS, meas.IPS)
	}
}

func TestDeterministicNoise(t *testing.T) {
	run := func() float64 {
		m := newMachine(t, platform.RaptorLake())
		p, err := m.Start(prof("a", 1e6, 0.1), "")
		if err != nil {
			t.Fatal(err)
		}
		mon, err := New(m, WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Track(p.ID()); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return mon.Sample()[p.ID()].IPS
	}
	if a, b := run(), run(); a != b {
		t.Errorf("noise not deterministic: %g vs %g", a, b)
	}
}
