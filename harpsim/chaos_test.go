package harpsim

import (
	"bytes"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/telemetry"
)

// chaosLiveness scales the default deadlines down to the simulator's pace so
// escalation fits inside short test horizons.
func chaosLiveness() core.LivenessPolicy {
	return core.LivenessPolicy{
		SuspectAfter:    200 * time.Millisecond,
		QuarantineAfter: 500 * time.Millisecond,
		ReapAfter:       time.Second,
	}
}

// chaosRun executes one fault-injected scenario, capturing the journal, the
// metrics and the full decision timeline.
func chaosRun(t *testing.T, sc Scenario, plan *faultsim.Plan, seed int64) (*Result, []byte, *telemetry.Metrics) {
	t.Helper()
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	tr := telemetry.NewTracer(1)
	var journal bytes.Buffer
	res := mustRun(t, sc, Options{
		Policy:        PolicyHARPOffline,
		OfflineTables: tables,
		Seed:          seed,
		Liveness:      chaosLiveness(),
		Faults:        plan,
		// The tracer's clock stamps journal epochs with virtual time; the
		// one-slot ring overflows on the second event.
		Tracer:         tr,
		Journal:        telemetry.NewJournal(&journal),
		Metrics:        mt,
		RecordTimeline: true,
	})
	if got, want := mt.TracerDropped.Value(), tr.Dropped(); got == 0 || got != want {
		t.Errorf("harp_tracer_dropped_total = %d, want the ring's %d evictions", got, want)
	}
	return res, journal.Bytes(), mt
}

// assertNoDoubleGrant replays the timeline, maintaining each instance's
// standing allocation, and fails if any core is ever granted to two
// non-co-allocated instances at once. Events with no cores (parked
// decisions, reaps, deregistrations) end the instance's standing grant.
// Decisions of one reallocation epoch share a timestamp and are checked as a
// batch: within an epoch the push order of "grow the survivor" and "park the
// victim" is unspecified, but the post-epoch standing allocation must be
// disjoint.
func assertNoDoubleGrant(t *testing.T, timeline []TimelineEvent) {
	t.Helper()
	standing := make(map[string]map[int]bool)
	coAlloc := make(map[string]bool)
	check := func(atSec float64) {
		used := make(map[int]string)
		for inst, cores := range standing {
			if coAlloc[inst] {
				continue
			}
			for c := range cores {
				if other, ok := used[c]; ok {
					t.Fatalf("core %d granted to both %s and %s at t=%.2fs",
						c, other, inst, atSec)
				}
				used[c] = inst
			}
		}
	}
	for i, ev := range timeline {
		if len(ev.Cores) == 0 {
			delete(standing, ev.Instance)
			delete(coAlloc, ev.Instance)
		} else {
			set := make(map[int]bool, len(ev.Cores))
			for _, c := range ev.Cores {
				set[c] = true
			}
			standing[ev.Instance] = set
			coAlloc[ev.Instance] = ev.CoAllocated
		}
		if i+1 == len(timeline) || timeline[i+1].AtSec != ev.AtSec {
			check(ev.AtSec)
		}
	}
}

// Acceptance: replaying the same seeded fault plan yields byte-identical
// decision journals — the whole injection path runs on the virtual clock.
func TestChaosSameSeedIdenticalJournals(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	targets := []string{"cg.C", "mg.C", "is.C"}
	run := func() []byte {
		plan := faultsim.Generate(99, targets, 10*time.Second, 5)
		_, journal, _ := chaosRun(t, sc, plan, 7)
		return journal
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("chaos run produced an empty journal")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same fault plan produced different journals")
	}
}

// Acceptance: a crashed session's cores are reclaimed within a bounded
// number of epochs, the allocator reconverges on the survivors, and no core
// is ever double-granted along the way.
func TestChaosCrashReclaimedWithinBound(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	crashAt := 3 * time.Second
	plan := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: crashAt, Target: "cg.C", Kind: faultsim.KindCrash},
	}}
	res, journal, mt := chaosRun(t, sc, plan, 11)

	if got := mt.SessionsReaped.Value(); got != 1 {
		t.Errorf("sessions reaped = %d, want 1", got)
	}
	if got := mt.SessionsQuarantined.Value(); got < 1 {
		t.Errorf("crashed session never quarantined (counter = %d)", got)
	}

	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	reapAt, quarantineAt := -1.0, -1.0
	for _, rec := range epochs {
		if rec.Trigger == "quarantine" && quarantineAt < 0 {
			quarantineAt = rec.AtSec
		}
		if rec.Trigger == "reap" && reapAt < 0 {
			reapAt = rec.AtSec
		}
	}
	if reapAt < 0 || quarantineAt < 0 {
		t.Fatalf("journal lacks the escalation (quarantine=%.2f reap=%.2f)", quarantineAt, reapAt)
	}
	// Bounded reclamation: crash time + ReapAfter + a few 50 ms sweep ticks.
	deadline := (crashAt + chaosLiveness().ReapAfter + 250*time.Millisecond).Seconds()
	if reapAt > deadline {
		t.Errorf("reap epoch at %.2fs, deadline %.2fs", reapAt, deadline)
	}
	// Reconvergence: the cores free up at quarantine time (the reap epoch
	// then just confirms the standing survivor allocation), and the reaped
	// session never reappears as an allocator input.
	survivorDecided := false
	for _, rec := range epochs {
		if rec.AtSec >= reapAt {
			for _, in := range rec.Inputs {
				if in.Instance == "cg.C" {
					t.Fatalf("reaped session still an allocator input at %.2fs", rec.AtSec)
				}
			}
		}
		if rec.AtSec >= quarantineAt {
			for _, out := range rec.Outputs {
				if out.Instance == "mg.C" && out.Cores > 0 {
					survivorDecided = true
				}
			}
		}
	}
	if !survivorDecided {
		t.Error("allocator never re-decided for the survivor after the quarantine")
	}
	assertNoDoubleGrant(t, res.Timeline)
}

// Acceptance: a dropout longer than the reap deadline loses its session and
// resumes via the simulated auto-reconnect — the RM counts a reconnect and
// the instance reappears in the journal with a fresh registration.
func TestChaosDropoutReconnects(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	plan := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: 3 * time.Second, Target: "mg.C", Kind: faultsim.KindDropout, Duration: 2 * time.Second},
	}}
	res, journal, mt := chaosRun(t, sc, plan, 13)

	if got := mt.SessionsReaped.Value(); got < 1 {
		t.Errorf("dropout never reaped (counter = %d)", got)
	}
	if got := mt.Reconnects.Value(); got < 1 {
		t.Errorf("dropout never reconnected (counter = %d)", got)
	}
	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var sawReap, sawReregister bool
	for _, rec := range epochs {
		switch rec.Trigger {
		case "reap":
			sawReap = true
		case "register":
			if sawReap {
				sawReregister = true
			}
		}
	}
	if !sawReap || !sawReregister {
		t.Errorf("journal lacks the reap/re-register sequence (reap=%v reregister=%v)",
			sawReap, sawReregister)
	}
	assertNoDoubleGrant(t, res.Timeline)
}

// A hang shorter than the reap deadline is absorbed: the session is
// suspected (and possibly quarantined) but readmitted once measurements
// resume — never reaped, never reconnected.
func TestChaosShortHangReadmitted(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	plan := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: 3 * time.Second, Target: "cg.C", Kind: faultsim.KindHang, Duration: 700 * time.Millisecond},
	}}
	res, _, mt := chaosRun(t, sc, plan, 17)

	if got := mt.SessionsReaped.Value(); got != 0 {
		t.Errorf("short hang reaped the session (counter = %d)", got)
	}
	if got := mt.SessionsQuarantined.Value(); got < 1 {
		t.Errorf("short hang never quarantined (counter = %d)", got)
	}
	if got := mt.SessionsReadmitted.Value(); got < 1 {
		t.Errorf("resumed session never readmitted (counter = %d)", got)
	}
	assertNoDoubleGrant(t, res.Timeline)
}
