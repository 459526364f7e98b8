package sim_test

import (
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sched"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

// countingSched counts the placements its scheduler makes.
type countingSched struct {
	sim.Scheduler
	calls *int
}

func (s countingSched) Place(topo []sim.HWInfo, procs []sim.ProcView) map[sim.ProcID][]sim.HWThread {
	*s.calls++
	return s.Scheduler.Place(topo, procs)
}

// frozenSched is a scheduler declared not to track utilisation, whatever
// its Place reads.
type frozenSched struct{ sim.Scheduler }

func (frozenSched) TracksUtil() bool { return false }

// stepSchedule applies the test schedule's changes due at step: an affinity
// restriction, a thread-count change, a late arrival, the restriction
// lifted. Nothing changes from step 140 on, a quiet stretch that lasts
// until the first process finishes.
func stepSchedule(t *testing.T, m *sim.Machine, step int) {
	t.Helper()
	var err error
	switch step {
	case 30:
		err = m.SetAffinity(2, []sim.HWThread{0, 1, 2, 3})
	case 55:
		err = m.SetThreads(3, 6)
	case 80:
		_, err = m.Start(&workload.Profile{
			Name: "late", Adaptivity: workload.Scalable, WorkGI: 25, MemBound: 0.6,
			SMTFriendly: 0.8, DynamicLoad: true, Wait: workload.Block,
		}, "late")
	case 140:
		err = m.SetAffinity(2, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestStepMatchesReference runs the same multi-process schedule through Step
// and through the reference step, which re-places on every 200 ms tick, with
// affinity and thread-count re-placements, a late arrival, bandwidth
// arbitration and processes finishing, and requires every process's Counters
// and the machine's EnergyReading to match bit for bit after each quantum.
// It does so under the package tests' round-robin scheduler, CFS and ITD on
// Raptor Lake — which place the same way until a placement input changes, so
// Step must skip the periodic re-placements, at least five in a row over the
// quiet stretch — and EAS on the Odroid, whose placement follows utilisation
// and must be redone on every tick: the same EAS declared not to track
// utilisation drifts from the reference.
func TestStepMatchesReference(t *testing.T) {
	rl, odroid := platform.RaptorLake(), platform.OdroidXU3()
	for _, tc := range []struct {
		plat  *platform.Platform
		sched sim.Scheduler
	}{
		{rl, sim.SpreadSched{}},
		{rl, sched.CFS{}},
		{rl, sched.ITD{Platform: rl}},
		{odroid, sched.EAS{}},
	} {
		t.Run(tc.sched.Name(), func(t *testing.T) {
			var gotCalls, wantCalls, frozenCalls int
			newMachine := func(s sim.Scheduler, calls *int) *sim.Machine {
				m, err := sim.New(tc.plat, countingSched{s, calls})
				if err != nil {
					t.Fatal(err)
				}
				sim.StepMix(t, m)
				return m
			}
			got, want := newMachine(tc.sched, &gotCalls), newMachine(tc.sched, &wantCalls)
			frozen := newMachine(frozenSched{tc.sched}, &frozenCalls)
			drifted := false
			quiet, longestQuiet := 0, 0 // reference re-placements since Step's last placement
			for step := 0; len(want.Live()) > 0; step++ {
				if step > 10000 {
					t.Fatal("processes still running after 100 s")
				}
				for _, m := range []*sim.Machine{got, want, frozen} {
					stepSchedule(t, m, step)
				}
				g, w := gotCalls, wantCalls
				if err := got.Step(); err != nil {
					t.Fatal(err)
				}
				if err := want.RefStep(); err != nil {
					t.Fatal(err)
				}
				if gotCalls > g {
					quiet = 0
				} else if wantCalls > w {
					quiet++
					longestQuiet = max(longestQuiet, quiet)
				}
				if !reflect.DeepEqual(got.Energy(), want.Energy()) {
					t.Fatalf("step %d: energy %+v, reference %+v", step, got.Energy(), want.Energy())
				}
				if !reflect.DeepEqual(got.Live(), want.Live()) {
					t.Fatalf("step %d: live processes %v, reference %v", step, got.Live(), want.Live())
				}
				for _, id := range want.Live() {
					gp, _ := got.Proc(id)
					wp, _ := want.Proc(id)
					if g, w := gp.Counters(), wp.Counters(); !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d, process %d: counters %+v, reference %+v", step, id, g, w)
					}
				}
				if len(frozen.Live()) > 0 {
					if err := frozen.Step(); err != nil {
						t.Fatal(err)
					}
					drifted = drifted || !reflect.DeepEqual(frozen.Energy(), want.Energy())
				}
			}
			if tc.sched.TracksUtil() {
				if gotCalls != wantCalls || !drifted {
					t.Fatalf("placed %d times, reference %d; skipping the ticks drifts: %v (want equal counts and a drift)",
						gotCalls, wantCalls, drifted)
				}
				return
			}
			if longestQuiet < 5 {
				t.Fatalf("Step skipped at most %d periodic re-placements in a row (placed %d times, reference %d), want ≥ 5",
					longestQuiet, gotCalls, wantCalls)
			}
		})
	}
}
