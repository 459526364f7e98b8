package workload

import (
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// TestIntelBenchmarkCharacter pins the qualitative behaviour of every Intel
// workload — the properties the paper's evaluation narrative depends on.
// "paceBound" marks barrier-coupled apps whose mixed-core rate is paced by
// the slowest thread; "bwBound" marks apps whose full-machine rate hits the
// memory-bandwidth ceiling.
func TestIntelBenchmarkCharacter(t *testing.T) {
	plat := platform.RaptorLake()
	suite := IntelApps()
	tests := []struct {
		name      string
		bwBound   bool
		paceBound bool
	}{
		{name: "bt.C", bwBound: true, paceBound: true},
		{name: "cg.C", bwBound: true, paceBound: true},
		{name: "ep.C", bwBound: false, paceBound: true},
		{name: "ft.C", bwBound: true, paceBound: true},
		{name: "is.C", bwBound: true, paceBound: true},
		{name: "lu.C", bwBound: true, paceBound: true},
		{name: "mg.C", bwBound: true, paceBound: true},
		{name: "sp.C", bwBound: true, paceBound: true},
		{name: "ua.C", bwBound: true, paceBound: true},
		{name: "binpack", bwBound: false, paceBound: false},
		{name: "fractal", bwBound: false, paceBound: false},
		{name: "parallel-preorder", bwBound: true, paceBound: false},
		{name: "pi", bwBound: false, paceBound: false},
		{name: "primes", bwBound: false, paceBound: false},
		{name: "seismic", bwBound: true, paceBound: false},
		{name: "vgg", bwBound: true, paceBound: false},
		{name: "alexnet", bwBound: true, paceBound: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prof := mustProfile(t, suite, tt.name)

			// Bandwidth-boundedness: the cap is binding when doubling the
			// available bandwidth makes the full-machine rate faster.
			slots := SlotsForVector(plat, plat.Capacity())
			normal := prof.Respond(plat, slots, Conditions{MemBWGips: plat.MemBWGips}, nil)
			doubled := prof.Respond(plat, slots, Conditions{MemBWGips: 2 * plat.MemBWGips}, nil)
			binding := doubled.UsefulRate > normal.UsefulRate*1.03
			if binding != tt.bwBound {
				t.Errorf("bwBound = %v, want %v (rate %.1f, with 2×BW %.1f)",
					binding, tt.bwBound, normal.UsefulRate, doubled.UsefulRate)
			}

			// Barrier pacing: statically split apps are paced by the
			// slowest thread on mixed cores.
			paced := prof.Barrier && !prof.DynamicLoad
			if paced != tt.paceBound {
				t.Errorf("paceBound = %v, want %v", paced, tt.paceBound)
			}
		})
	}
}

// TestWorkloadScalingMonotonicity: for work-stealing apps, adding exclusive
// resources never reduces throughput.
func TestWorkloadScalingMonotonicity(t *testing.T) {
	plat := platform.RaptorLake()
	for _, prof := range IntelApps() {
		if !prof.DynamicLoad || prof.QueueCap > 0 {
			continue // barrier pacing and queue contention are legitimately non-monotone
		}
		t.Run(prof.Name, func(t *testing.T) {
			prev := 0.0
			for e := 1; e <= 16; e++ {
				rv, err := platform.VectorOf(plat, []int{0, 0}, []int{e})
				if err != nil {
					t.Fatal(err)
				}
				rate := usefulRate(plat, prof, rv)
				if rate+1e-9 < prev {
					t.Fatalf("rate dropped when adding E-core %d: %.3f → %.3f", e, prev, rate)
				}
				prev = rate
			}
		})
	}
}

// TestShortRunningAppsAreShort: the startup-overhead narrative (§6.3.1,
// §6.4.1) needs primes and is to finish within a couple of seconds under the
// baseline.
func TestShortRunningAppsAreShort(t *testing.T) {
	intel := platform.RaptorLake()
	for _, name := range []string{"is.C", "primes"} {
		prof := mustProfile(t, IntelApps(), name)
		ev := EvaluateVector(intel, prof, intel.Capacity())
		if ev.TimeSec > 3 {
			t.Errorf("%s full-machine time = %.2fs, want < 3s", name, ev.TimeSec)
		}
	}
	odroid := platform.OdroidXU3()
	is := mustProfile(t, OdroidApps(), "is.A")
	ev := EvaluateVector(odroid, is, odroid.Capacity())
	if ev.TimeSec > 6 {
		t.Errorf("is.A full-machine time = %.2fs, want < 6s", ev.TimeSec)
	}
}

// TestLongRunningAppsAreLong: lu must be the long-running benchmark the
// paper contrasts with is (§6.4.1).
func TestLongRunningAppsAreLong(t *testing.T) {
	for _, tc := range []struct {
		plat *platform.Platform
		app  string
		min  float64
	}{
		{platform.RaptorLake(), "lu.C", 30},
		{platform.OdroidXU3(), "lu.A", 30},
	} {
		suite := IntelApps()
		if tc.plat.Name == platform.OdroidXU3().Name {
			suite = OdroidApps()
		}
		prof := mustProfile(t, suite, tc.app)
		ev := EvaluateVector(tc.plat, prof, tc.plat.Capacity())
		if ev.TimeSec < tc.min {
			t.Errorf("%s full-machine time = %.2fs, want ≥ %.0fs", tc.app, ev.TimeSec, tc.min)
		}
	}
}

// TestKPNAdaptiveVsStatic: the adaptive KPN variants expose a scaling knob
// the static ones lack, but share the same workload.
func TestKPNAdaptiveVsStatic(t *testing.T) {
	suite := OdroidApps()
	pairs := [][2]string{{"mandelbrot", "mandelbrot-static"}, {"lms", "lms-static"}}
	for _, pair := range pairs {
		adaptive := mustProfile(t, suite, pair[0])
		static := mustProfile(t, suite, pair[1])
		if adaptive.Adaptivity != Custom {
			t.Errorf("%s adaptivity = %v, want custom", pair[0], adaptive.Adaptivity)
		}
		if static.Adaptivity != Static {
			t.Errorf("%s adaptivity = %v, want static", pair[1], static.Adaptivity)
		}
		if adaptive.WorkGI != static.WorkGI {
			t.Errorf("%v: variants disagree on work (%g vs %g)", pair, adaptive.WorkGI, static.WorkGI)
		}
		if static.DefaultThreads == 0 {
			t.Errorf("%s: static KPN without a fixed topology", pair[1])
		}
	}
}
