package harpsim

import (
	"bytes"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
)

// degradedRung reports whether the solve source is a degradation-ladder
// rung (as opposed to a healthy cold/warm/cached solve).
func degradedRung(source string) bool {
	switch source {
	case alloc.SourceDegradedGreedy, alloc.SourceDegradedStale, alloc.SourceFrozen:
		return true
	}
	return false
}

// degradedEpochs is sum(harp_epoch_degraded_total) over the ladder's rungs:
// every epoch whose primary solve failed.
func degradedEpochs(mt *telemetry.Metrics) uint64 {
	var n uint64
	for _, rung := range []string{alloc.SourceDegradedGreedy, alloc.SourceDegradedStale, alloc.SourceFrozen} {
		n += mt.EpochDegraded.With(rung).Value()
	}
	return n
}

// Acceptance: an injected solver stall degrades epochs onto the greedy
// fallback rung — journalled, counted, pushing decisions throughout — and
// the loop returns to healthy solves once the stall lifts. No epoch is
// lost and no core is double-granted along the way.
func TestOverloadSolverStallDegradesAndRecovers(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	plan := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: 3 * time.Second, Target: faultsim.RMTarget, Kind: faultsim.KindSolverStall, Duration: 500 * time.Millisecond},
	}}
	res, journal, mt := chaosRun(t, sc, plan, 23)

	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	degraded, maxStreak, streak := 0, 0, 0
	for _, rec := range epochs {
		if degradedRung(rec.SolveSource) {
			degraded++
			streak++
			if streak > maxStreak {
				maxStreak = streak
			}
			if rec.SolveSource == alloc.SourceDegradedGreedy && rec.Error != "" {
				t.Errorf("degraded-greedy epoch at %.2fs journalled Error %q", rec.AtSec, rec.Error)
			}
		} else {
			streak = 0
		}
	}
	if degraded == 0 {
		t.Fatal("solver stall never produced a degraded epoch")
	}
	// Bounded degradation: the stall covers 500 ms of measure ticks; the
	// ladder must not stay engaged past the injected window.
	if stallEpochs := int(plan.Faults[0].Duration/(50*time.Millisecond)) + 2; maxStreak > stallEpochs {
		t.Errorf("degraded streak of %d epochs exceeds the %d-epoch stall window", maxStreak, stallEpochs)
	}
	if last := epochs[len(epochs)-1]; degradedRung(last.SolveSource) {
		t.Errorf("final epoch still degraded (%s): the ladder never released", last.SolveSource)
	}
	if got := mt.EpochDegraded.With(alloc.SourceDegradedGreedy).Value(); got == 0 {
		t.Error("harp_epoch_degraded_total{rung=degraded-greedy} = 0")
	}
	if got := degradedEpochs(mt); got == 0 {
		t.Error("sum(harp_epoch_degraded_total) = 0 under injected stalls")
	}
	assertNoDoubleGrant(t, res.Timeline)
}

// Acceptance: injected store I/O faults push the durable layer into
// degraded mode (retries counted) without ever stopping allocation; once
// the faults clear, the store heals and the final snapshot lands, so a
// restart recovers warm.
func TestOverloadStoreIOFaultsDegradeDurabilityNotAllocation(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	dir := t.TempDir()
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	var journal bytes.Buffer
	// The fault lands before the 150 ms registrations: the first session's
	// WAL append exhausts its retries (200 ms of faults = four failing
	// writes), the next append heals the store.
	plan := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: 50 * time.Millisecond, Target: faultsim.RMTarget, Kind: faultsim.KindStoreIO, Duration: 200 * time.Millisecond},
	}}
	res := mustRun(t, sc, Options{
		Policy:         PolicyHARPOffline,
		OfflineTables:  tables,
		Seed:           29,
		Liveness:       chaosLiveness(),
		Faults:         plan,
		StateDir:       dir,
		Tracer:         telemetry.NewTracer(1),
		Journal:        telemetry.NewJournal(&journal),
		Metrics:        mt,
		RecordTimeline: true,
	})

	if got := mt.StoreRetries.Value(); got == 0 {
		t.Error("harp_store_retries_total = 0 under injected store faults")
	}
	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("no epochs journalled: allocation stopped during the store outage")
	}
	for _, rec := range epochs {
		if degradedRung(rec.SolveSource) {
			t.Errorf("store outage degraded the solve at %.2fs (%s): durability and allocation must fail independently",
				rec.AtSec, rec.SolveSource)
		}
	}
	assertNoDoubleGrant(t, res.Timeline)

	// The store healed after the outage, so the clean shutdown snapshotted
	// and a restart recovers warm.
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen state dir: %v", err)
	}
	defer s.Close()
	if s.Recovery().ColdStart {
		t.Error("restart after a healed outage cold-started: the final snapshot is missing")
	}
}

// Acceptance: the full overload chaos mix — solver stalls, store faults
// and client failures in one churn run — replays byte-identically from the
// same seed, because every injection is count-based on the virtual clock.
func TestOverloadChurnSameSeedIdenticalJournals(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	targets := []string{"cg.C", "mg.C", "is.C"}
	run := func() []byte {
		plan := faultsim.Generate(41, targets, 10*time.Second, 4)
		plan.Faults = append(plan.Faults,
			faultsim.Fault{At: 2 * time.Second, Target: faultsim.RMTarget, Kind: faultsim.KindSolverStall, Duration: 300 * time.Millisecond},
			faultsim.Fault{At: 6 * time.Second, Target: faultsim.RMTarget, Kind: faultsim.KindSolverStall, Duration: 150 * time.Millisecond},
		)
		sort.Slice(plan.Faults, func(i, j int) bool { return plan.Faults[i].At < plan.Faults[j].At })
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		res, journal, _ := chaosRun(t, sc, plan, 43)
		assertNoDoubleGrant(t, res.Timeline)
		return journal
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("overload churn produced an empty journal")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same overload fault plan produced different journals")
	}
	epochs, err := telemetry.ReadJournal(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for _, rec := range epochs {
		if degradedRung(rec.SolveSource) {
			sawDegraded = true
			break
		}
	}
	if !sawDegraded {
		t.Error("churn plan never engaged the degradation ladder")
	}
}

// Acceptance: without faults the ladder stays dormant — no degraded solve
// sources, no error epochs — so unfaulted journals carry none of the new
// omitempty fields and stay byte-compatible with pre-ladder runs.
func TestOverloadUnfaultedJournalHasNoDegradedMarkers(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	_, journal, mt := chaosRun(t, sc, nil, 7)
	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("unfaulted run journalled no epochs")
	}
	for _, rec := range epochs {
		if degradedRung(rec.SolveSource) {
			t.Errorf("unfaulted epoch at %.2fs degraded (%s)", rec.AtSec, rec.SolveSource)
		}
		if rec.Error != "" {
			t.Errorf("unfaulted epoch at %.2fs has Error %q", rec.AtSec, rec.Error)
		}
	}
	if got := degradedEpochs(mt); got != 0 {
		t.Errorf("sum(harp_epoch_degraded_total) = %d on an unfaulted run", got)
	}
	if bytes.Contains(journal, []byte("solve_source\":\"degraded")) ||
		bytes.Contains(journal, []byte("solve_source\":\"frozen")) {
		t.Error("unfaulted journal bytes mention degraded solve sources")
	}
}

// TestOverloadSoak is the nightly long-churn run (HARP_SOAK=1): a larger
// fleet under a dense mixed fault plan — solver stalls, store outages,
// client crashes/hangs/dropouts — for minutes of virtual time. It asserts
// the hard invariants only (no double grant, ladder releases, journal
// parses); the point is surviving sustained overload, not exact numbers.
func TestOverloadSoak(t *testing.T) {
	if os.Getenv("HARP_SOAK") == "" {
		t.Skip("set HARP_SOAK=1 to run the overload soak")
	}
	suite := []string{"cg.C", "mg.C", "is.C", "cg.C", "mg.C", "is.C", "cg.C", "mg.C"}
	sc := intelScenario(t, suite...)
	targets := make([]string, 0, len(suite))
	seen := map[string]int{}
	for _, n := range suite {
		seen[n]++
		if seen[n] == 1 {
			targets = append(targets, n)
		} else {
			targets = append(targets, n+"#"+string(rune('0'+seen[n])))
		}
	}
	horizon := 5 * time.Minute
	plan := faultsim.Generate(97, targets, horizon, 40)
	for at := 10 * time.Second; at < horizon; at += 20 * time.Second {
		plan.Faults = append(plan.Faults,
			faultsim.Fault{At: at, Target: faultsim.RMTarget, Kind: faultsim.KindSolverStall, Duration: time.Second},
			faultsim.Fault{At: at + 7*time.Second, Target: faultsim.RMTarget, Kind: faultsim.KindStoreIO, Duration: 500 * time.Millisecond},
		)
	}
	sort.Slice(plan.Faults, func(i, j int) bool { return plan.Faults[i].At < plan.Faults[j].At })
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	var journal bytes.Buffer
	res := mustRun(t, sc, Options{
		Policy:         PolicyHARPOffline,
		OfflineTables:  tables,
		Seed:           101,
		Liveness:       chaosLiveness(),
		Faults:         plan,
		StateDir:       dir,
		Tracer:         telemetry.NewTracer(1),
		Journal:        telemetry.NewJournal(&journal),
		Metrics:        mt,
		RecordTimeline: true,
	})
	if bound := (horizon + time.Minute).Seconds(); res.MakespanSec > bound {
		t.Fatalf("soak makespan %.1f s, bound %.0f s", res.MakespanSec, bound)
	}
	assertNoDoubleGrant(t, res.Timeline)

	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("soak journalled no epochs")
	}
	if last := epochs[len(epochs)-1]; degradedRung(last.SolveSource) {
		t.Errorf("soak ended with the ladder still engaged (%s)", last.SolveSource)
	}
	if got := mt.EpochDegraded.With(alloc.SourceDegradedGreedy).Value(); got == 0 {
		t.Error("soak never exercised the greedy fallback rung")
	}
	if got := mt.StoreRetries.Value(); got == 0 {
		t.Error("soak never exercised the store retry path")
	}
	t.Logf("soak: %d epochs, %d degraded-greedy, %d store retries, %d rm sessions reaped",
		len(epochs), mt.EpochDegraded.With(alloc.SourceDegradedGreedy).Value(),
		mt.StoreRetries.Value(), mt.SessionsReaped.Value())
}
