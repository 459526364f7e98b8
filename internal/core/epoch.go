package core

// The epoch pipeline: snapshot → solve → push → journal, driven by deltas.
//
// An epoch's cost should follow what changed, not how many sessions exist.
// Three pieces of standing state make that possible:
//
//   - The solve input set (Manager.inputs, one position per non-quarantined
//     session in registration order) is kept between epochs. The operations
//     that change it — Register, Deregister, a quarantine or readmission, a
//     table upload, a committed exploration point — mark it stale, and the
//     next epoch refreshes it in place; an epoch that follows a phase change
//     or a cadence trigger reuses it untouched.
//   - The solver says what moved (alloc.Stats.Changed): the positions whose
//     allocation may differ from its previous answer. The push walk visits
//     those plus the Manager's own dirty list — sessions whose standing
//     decision is not simply "the solver's allocation": new, exploring,
//     freshly quarantined or readmitted ones. Everyone else already holds the
//     decision the solver just confirmed.
//   - A full solve (cold, warm, cached, or any solver that reports no delta),
//     a degraded epoch and the epoch after one are the same walk with every
//     session in it. The walk compares an allocation with the standing
//     decision before it builds anything, so visiting an unchanged session
//     allocates nothing.
//
// The delta is trusted only from one healthy primary solve to the next
// (Manager.deltaOK): the solver's "previous answer" is then exactly what the
// previous walk pushed. Any other epoch — a ladder rung, an error, a solve
// that never ran — is followed by a full walk.

import (
	"fmt"
	"slices"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Reallocate recomputes allocations for all sessions and pushes changed
// decisions. It is invoked on registration, exits, graduation to the stable
// stage, and the periodic stable-stage cadence.
func (m *Manager) Reallocate() error {
	return m.reallocate("manual")
}

// reallocate is Reallocate with the trigger label for the decision journal
// and trace events.
func (m *Manager) reallocate(trigger string) error {
	// Any full solve satisfies a queued coalesced epoch — absorb it so an
	// inline trigger (cadence, graduation, manual) never leaves a stale
	// pending flush behind.
	m.absorbPending()
	if len(m.sessions) == 0 {
		return nil
	}
	var t0 time.Duration
	timed := m.cfg.LatencyClock != nil
	if timed {
		t0 = m.cfg.LatencyClock()
	}

	ep := m.cfg.Tracer.BeginPhase(telemetry.PhaseEpoch, m.epochHist)
	defer ep.End()

	snap := m.cfg.Tracer.BeginPhase(telemetry.PhaseSnapshot, m.snapshotHist)
	m.syncInputs()
	snap.End()

	var sr solveResult
	if len(m.inputs) > 0 {
		sr = m.solveWithLadder()
		if sr.hardErr != nil {
			// Custom-allocator fail-fast semantics: the solve failure pushes
			// nothing — every session keeps its standing decision — and is
			// journalled as an error epoch so operators see the gap in the
			// decision stream instead of a silently missing epoch.
			return m.failEpoch(trigger, sr.hardErr)
		}
		if sr.frozen {
			// Ladder rung 4: no usable allocation exists at all. Standing
			// decisions stay frozen (pushing zeros would strand running
			// applications for a transient solver fault) and the epoch
			// records the gap.
			m.deltaOK = false
			m.lastSolveSource = alloc.SourceFrozen
			m.recordEpochWith(trigger, 0, alloc.SourceFrozen, sr.errMsg)
			return nil
		}
		if sr.stats.Source != "" {
			m.lastSolveSource = sr.stats.Source
		}
	}

	pushSpan := m.cfg.Tracer.BeginPhase(telemetry.PhasePush, m.pushHist)
	err := m.pushEpoch(&sr)
	pushSpan.End()
	if err != nil {
		return m.failEpoch(trigger, err)
	}

	if timed {
		if mt := m.cfg.Metrics; mt != nil {
			mt.AllocLatency.Observe((m.cfg.LatencyClock() - t0).Seconds())
		}
	}
	if mt := m.cfg.Metrics; mt != nil {
		mt.Reallocations.Inc()
		mt.CoresGranted.Set(float64(m.coresGranted))
	}
	m.recordEpoch(trigger, sr.stats.LambdaIters, sr.stats.Source)
	return nil
}

// failEpoch journals an epoch that pushed nothing because the solve (or its
// result) was unusable, and returns the error for the caller.
func (m *Manager) failEpoch(trigger string, err error) error {
	m.deltaOK = false
	m.recordEpochError(trigger, err)
	return fmt.Errorf("core: allocate: %w", err)
}

// syncInputs brings the solve input set up to date: every non-quarantined
// session in registration order, with the table its application currently
// predicts. A no-op unless a mutation marked the set stale; otherwise one
// pass over the solve order that refills the retained slices in place.
func (m *Manager) syncInputs() {
	if !m.inputsStale {
		return
	}
	m.inputsStale = false
	was := len(m.inputs)
	inputs, sess := m.inputs[:0], m.inputSess[:0]
	for _, s := range m.order {
		if s == nil {
			continue // tombstoned order slot (orderRemove)
		}
		if s.liveness == LivenessQuarantined {
			// Quarantined sessions are excluded from the solve: their cores
			// shrink to zero (a parked decision) and the survivors absorb
			// the capacity.
			s.inputIdx = -1
			continue
		}
		s.inputIdx = len(inputs)
		inputs = append(inputs, alloc.AppInput{ID: s.instance, Table: s.explorer.PredictedTable()})
		sess = append(sess, s)
	}
	if len(inputs) < was {
		// Same backing array, shorter set: drop the tail's references.
		clear(m.inputs[len(inputs):was])
		clear(m.inputSess[len(sess):was])
	}
	m.inputs, m.inputSess = inputs, sess
}

// markDirty lists a session for the next push walk regardless of the
// solver's delta.
func (m *Manager) markDirty(s *session) {
	if !s.dirty {
		s.dirty = true
		m.dirty = append(m.dirty, s)
	}
}

// solveResult is one epoch's outcome from the degradation ladder.
type solveResult struct {
	// allocs is positional to Manager.inputs; owned by the solver that
	// produced it and valid until its next solve.
	allocs []alloc.Allocation
	stats  alloc.Stats
	// primary marks a healthy solve by the primary allocator — the only
	// kind whose Stats.Changed describes the Manager's previous walk.
	primary bool
	// stale marks rung 3: the standing decisions are the last-known-good and
	// are held; only quarantined sessions are parked.
	stale bool
	// frozen marks rung 4: nothing usable, push no decisions at all.
	frozen bool
	// errMsg is the triggering failure, journalled on frozen epochs.
	errMsg string
	// hardErr carries a custom-allocator solve error through unchanged
	// (fail-fast semantics; no fallback rungs apply).
	hardErr error
}

// solveWithLadder runs the epoch's solve through the degradation ladder:
//
//  1. the deadline-bounded primary solve (the subgradient loop cuts off
//     early when EpochBudget is exceeded on the LatencyClock);
//  2. a greedy fallback solve when the primary errors, panics or stalls;
//  3. the last-known-good allocation held: every session keeps its standing
//     decision — which is that allocation, kept per session rather than as
//     a copy of every healthy epoch's solution;
//  4. pushes frozen entirely (nothing has ever been solved).
//
// Rungs 2–4 are journalled via Stats.Source, counted per rung in
// harp_epoch_degraded_total and traced as EvEpochDegraded. A panicking
// solve additionally quarantines the session whose inputs reproduce the
// panic (poisonous-table isolation) before falling down the ladder.
func (m *Manager) solveWithLadder() solveResult {
	var cause error
	if m.forceDegraded > 0 {
		// An injected stall skips the primary solve outright, exactly as a
		// wedged solver would look from the epoch loop's side.
		m.forceDegraded--
		cause = errSolverStalled
	} else {
		allocs, stats, pv, err := m.solvePrimary()
		switch {
		case pv != nil:
			m.quarantinePanicking()
			cause = fmt.Errorf("core: solver panic: %s", truncatePanic(pv))
		case err == nil:
			m.lastRung = ""
			m.haveGood = len(allocs) > 0
			return solveResult{allocs: allocs, stats: stats, primary: true}
		case m.fallback == nil:
			// Custom allocators keep their fail-fast error contract.
			return solveResult{hardErr: err}
		default:
			cause = err
		}
	}

	// Rung 2: greedy fallback. Cheap, deterministic, and independent of
	// the primary solver's cache and warm state.
	if m.fallback != nil {
		if allocs, stats, pv, err := m.runAllocator(m.fallback, m.inputs); err == nil && pv == nil {
			stats.Source = alloc.SourceDegradedGreedy
			stats.LambdaIters = 0
			m.markRung(alloc.SourceDegradedGreedy, cause)
			m.haveGood = len(allocs) > 0
			return solveResult{allocs: allocs, stats: stats}
		}
	}

	// Rung 3: hold the last-known-good allocation.
	if m.haveGood {
		m.markRung(alloc.SourceDegradedStale, cause)
		return solveResult{stats: alloc.Stats{Source: alloc.SourceDegradedStale}, stale: true}
	}

	// Rung 4: freeze.
	m.markRung(alloc.SourceFrozen, cause)
	return solveResult{frozen: true, errMsg: cause.Error()}
}

// solvePrimary runs the primary allocator with the epoch deadline armed
// and panic containment on.
func (m *Manager) solvePrimary() ([]alloc.Allocation, alloc.Stats, any, error) {
	if m.cfg.LatencyClock != nil && m.cfg.EpochBudget > 0 {
		m.deadlineAt = m.cfg.LatencyClock() + m.cfg.EpochBudget
		m.deadlineArmed = true
		defer func() { m.deadlineArmed = false }()
	}
	return m.runAllocator(m.allocator, m.inputs)
}

// runAllocator invokes one solver with panic containment; panicked is the
// recovered panic value (nil when the solve returned normally).
func (m *Manager) runAllocator(a Allocator, inputs []alloc.AppInput) (allocs []alloc.Allocation, stats alloc.Stats, panicked any, err error) {
	defer func() {
		if r := recover(); r != nil {
			allocs, stats, err = nil, alloc.Stats{}, nil
			panicked = r
		}
	}()
	allocs, stats, err = a.AllocateWithStats(inputs)
	return
}

// quarantinePanicking attributes a solve panic by probing each input alone
// against the primary solver and quarantines the offenders, leaving the
// input set without them. When no single input reproduces the panic (an
// interaction, or a non-deterministic fault) the set is unchanged and the
// ladder handles the epoch without isolation.
func (m *Manager) quarantinePanicking() {
	for i := range m.inputs {
		if _, _, pv, _ := m.runAllocator(m.allocator, m.inputs[i:i+1:i+1]); pv != nil {
			m.quarantineForPanic(m.inputSess[i], pv)
		}
	}
	m.syncInputs()
}

// quarantineForPanic moves a session into quarantine without triggering a
// nested reallocation — the surrounding epoch parks it in its own push
// phase, exactly like a liveness quarantine.
func (m *Manager) quarantineForPanic(s *session, pv any) {
	if s.gone || s.liveness == LivenessQuarantined {
		return
	}
	m.setLiveness(s, LivenessQuarantined)
	s.explorer.Abort()
	s.stableMeasurements = 0
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvSessionPanicked,
		Instance: s.instance,
		App:      s.app,
		Stage:    truncatePanic(pv),
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.SessionsQuarantined.Inc()
	}
}

// markRung accounts one degraded epoch: the rung counter, the epoch
// failure counter, the sticky error surfaces and an EvEpochDegraded trace
// event.
func (m *Manager) markRung(rung string, cause error) {
	m.lastRung = rung
	m.lastEpochErr = cause.Error()
	if mt := m.cfg.Metrics; mt != nil {
		mt.EpochFailures.Inc()
		mt.EpochDegraded.With(rung).Inc()
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:  telemetry.EvEpochDegraded,
		Stage: rung,
	})
}

// truncatePanic renders a recovered panic value bounded for trace and
// status surfaces.
func truncatePanic(pv any) string {
	s := fmt.Sprintf("%v", pv)
	const max = 120
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// pushWalk is one epoch's push phase: the solution being pushed and what
// the exploring sessions share.
type pushWalk struct {
	allocs []alloc.Allocation
	stale  bool
	// nExploring counts the sessions splitting the free cores; free lists,
	// per kind, the cores no isolated allocation holds. Computed only when
	// some session is exploring.
	nExploring int
	free       [][]int
}

// pushEpoch walks the sessions the epoch may have moved and pushes the
// decisions that actually changed. On a delta epoch that is the solver's
// changed positions plus the dirty list; otherwise every session.
func (m *Manager) pushEpoch(sr *solveResult) error {
	w := pushWalk{allocs: sr.allocs, stale: sr.stale}
	if !sr.stale && len(sr.allocs) != len(m.inputs) {
		return fmt.Errorf("solver returned %d allocations for %d inputs", len(sr.allocs), len(m.inputs))
	}

	full := !sr.primary || !m.deltaOK || sr.stats.Changed == nil
	visit := m.order
	if !full {
		visit = m.visit[:0]
		for _, i := range sr.stats.Changed {
			if i < 0 || i >= len(m.inputSess) {
				return fmt.Errorf("solver reported change at position %d of %d inputs", i, len(m.inputSess))
			}
			if s := m.inputSess[i]; !s.dirty { // dirty sessions join below
				visit = append(visit, s)
			}
		}
		for _, s := range m.dirty {
			if !s.gone {
				visit = append(visit, s)
			}
		}
		// Registration order, as the full walk: decision sequence numbers
		// follow the walk.
		slices.SortFunc(visit, func(a, b *session) int { return a.slot - b.slot })
		m.visit = visit[:0]
	}

	// The sessions visited settle their own dirtiness below.
	for _, s := range m.dirty {
		s.dirty = false
	}
	wasDirty := m.dirty
	m.dirty = m.dirty[:0]

	if !w.stale {
		for _, s := range visit {
			if s == nil || s.liveness == LivenessQuarantined {
				continue
			}
			if s.inputIdx < 0 || s.inputIdx >= len(w.allocs) || w.allocs[s.inputIdx].ID != s.instance {
				return fmt.Errorf("solver result does not hold %q at its input position %d", s.instance, s.inputIdx)
			}
			al := &w.allocs[s.inputIdx]
			s.coAllocated = al.CoAllocated
			if m.exploring(s) && !s.coAllocated {
				// Exploring sessions split the free cores evenly (§5.3).
				w.nExploring++
			}
		}
		if w.nExploring > 0 {
			w.free = m.freeCores(w.allocs)
		}
	}

	for i := 0; i < len(visit); {
		i = m.pushFrom(visit, i, &w)
	}
	if len(m.dirty) < len(wasDirty) {
		clear(wasDirty[len(m.dirty):]) // drop references the shorter list no longer covers
	}
	if !full {
		clear(visit)
	}

	if full {
		// Every session was just visited: re-sum the power budget in
		// registration order, so rounding from incremental updates never
		// outlives a full walk.
		m.standingPowerW = 0
		for _, s := range m.order {
			if s != nil && s.last != nil {
				m.standingPowerW += s.last.PredictedPowerW
			}
		}
	}
	m.deltaOK = sr.primary
	return nil
}

// freeCores lists, per kind, the cores no spatially isolated allocation of
// the solution holds — what exploring sessions may roam in.
func (m *Manager) freeCores(allocs []alloc.Allocation) [][]int {
	used := m.usedCores
	clear(used)
	for i := range allocs {
		if allocs[i].CoAllocated {
			continue
		}
		for _, g := range allocs[i].Grants {
			if g.Core >= 0 && g.Core < len(used) {
				used[g.Core] = true
			}
		}
	}
	free := make([][]int, len(m.cfg.Platform.Kinds))
	for kind := range free {
		lo, hi := m.cfg.Platform.CoreRange(platform.KindID(kind))
		for c := lo; c < hi; c++ {
			if !used[c] {
				free[kind] = append(free[kind], c)
			}
		}
	}
	return free
}

// pushFrom pushes visit[i:] and returns len(visit) — or, when a session's
// push panics, contains the panic: the session whose table or decision path
// panicked is quarantined (poisonous-table isolation) and parked instead of
// the panic killing the epoch loop and every other session with it, and the
// index after it is returned for the walk to resume. One deferred recover
// covers the whole walk; attribution costs nothing until something panics.
func (m *Manager) pushFrom(visit []*session, i int, w *pushWalk) (next int) {
	defer func() {
		if r := recover(); r != nil {
			s := visit[i]
			m.quarantineForPanic(s, r)
			func() {
				defer func() {
					if recover() != nil {
						// Even the parked push panicked; drop the standing
						// decision so the session cannot hold ghost grants.
						m.setStanding(s, nil)
					}
				}()
				m.pushParked(s)
			}()
			next = i + 1
		}
	}()
	for ; i < len(visit); i++ {
		if s := visit[i]; s != nil {
			m.pushSession(s, w)
		}
	}
	return i
}

// pushSession pushes one visited session's epoch outcome and settles
// whether the next walk must visit it again.
func (m *Manager) pushSession(s *session, w *pushWalk) {
	if s.liveness == LivenessQuarantined {
		s.explorer.Abort()
		s.pool = nil
		s.bound = nil
		s.coAllocated = false
		m.pushParked(s)
		return
	}
	if w.stale {
		return // the standing decision is the last-known-good
	}
	al := &w.allocs[s.inputIdx]
	if m.exploring(s) {
		// Still learning: the standing decision is a probe (or will be once
		// the session leaves co-allocation), never just the solver's answer.
		m.markDirty(s)
	}
	if m.exploring(s) && !s.coAllocated {
		m.setExplorationPool(s, al, w.free, w.nExploring)
		if err := m.startExploration(s); err != nil {
			// Nothing left to explore within the bound; run the base
			// allocation as-is.
			s.explorer.Abort()
			m.pushBase(s, al)
		}
		return
	}
	s.explorer.Abort()
	s.pool = nil
	s.bound = nil
	m.pushBase(s, al)
}

// ForceDegradedSolves makes the next n reallocation epochs skip the
// primary solver as if it had stalled past its deadline, walking the
// degradation ladder instead. Count-based and clock-free, so harpsim's
// solver-stall faults reproduce bit-identically on the virtual clock.
func (m *Manager) ForceDegradedSolves(n int) {
	if n > 0 {
		m.forceDegraded += n
	}
}

// LastEpochError returns the sticky message of the most recent failed or
// degraded epoch (empty while every epoch has been healthy).
func (m *Manager) LastEpochError() string { return m.lastEpochErr }

// DegradedRung returns the degradation-ladder rung that resolved the most
// recent epoch (alloc.SourceDegradedGreedy, SourceDegradedStale or
// SourceFrozen; empty when the last solve was healthy).
func (m *Manager) DegradedRung() string { return m.lastRung }

// LastSolveSource reports where the most recent epoch's solution came from
// (alloc.SourceCold, SourceWarm, SourceCached, SourceIncremental,
// SourceSharded or a degradation-ladder rung; empty before the first solve).
func (m *Manager) LastSolveSource() string { return m.lastSolveSource }

// AllocCacheStats reports the allocator's solution-cache accounting, or the
// zero value when the configured allocator has no cache.
func (m *Manager) AllocCacheStats() alloc.CacheStats {
	if c, ok := m.allocator.(interface{ CacheStats() alloc.CacheStats }); ok {
		return c.CacheStats()
	}
	return alloc.CacheStats{}
}

// recordEpoch writes one decision-journal record covering the decisions
// accumulated in pendingOut since the previous epoch; source labels where
// the epoch's solution came from (empty for epochs without a solve).
func (m *Manager) recordEpoch(trigger string, lambdaIters int, source string) {
	m.recordEpochWith(trigger, lambdaIters, source, "")
}

// recordEpochError journals a failed reallocation: an epoch with no outputs
// and the allocator's error, so the journal explains why no decisions were
// pushed for the trigger.
func (m *Manager) recordEpochError(trigger string, allocErr error) {
	m.recordEpochWith(trigger, 0, "", allocErr.Error())
}

func (m *Manager) recordEpochWith(trigger string, lambdaIters int, source, errMsg string) {
	if !m.cfg.Journal.Enabled() && m.cfg.Energy == nil {
		return
	}
	// The epoch's predicted system power is the fleet budget the energy
	// ledger accrues overrun against until the next epoch moves it.
	budget := m.standingPowerW
	m.cfg.Energy.SetBudget(budget)
	if m.cfg.Journal.Enabled() {
		rec := telemetry.EpochRecord{
			AtSec:        m.cfg.Tracer.Now().Seconds(),
			Trigger:      trigger,
			LambdaIters:  lambdaIters,
			SolveSource:  source,
			PowerBudgetW: budget,
			Error:        errMsg,
			Inputs:       make([]telemetry.EpochInput, 0, len(m.sessions)),
			Outputs:      m.pendingOut,
		}
		if led := m.cfg.Energy; led != nil {
			tot := led.Totals()
			rec.EnergyJ = tot.Joules
			rec.BudgetHeadroomW = budget - tot.PowerW
		}
		for _, s := range m.order {
			if s == nil {
				continue
			}
			rec.Inputs = append(rec.Inputs, telemetry.EpochInput{
				Instance: s.instance,
				App:      s.app,
				Stage:    s.explorer.Stage().String(),
				Utility:  s.lastUtility,
				PowerW:   s.lastPower,
				Measured: s.explorer.Table().MeasuredCount(),
			})
		}
		m.pendingOut = nil
		jsp := m.cfg.Tracer.BeginPhase(telemetry.PhaseJournal, m.journalHist)
		_ = m.cfg.Journal.Record(rec) // sticky error readable via Journal.Err
		jsp.End()
	}
	if m.cfg.Energy != nil {
		// Persist the ledger once per epoch: a crash loses at most the
		// accrual since this record, so recovered joules stay monotone.
		m.appendRecord(store.Record{Kind: store.RecEnergy, Energy: m.cfg.Energy.Export()})
	}
}

// exploring reports whether a session is still learning.
func (m *Manager) exploring(s *session) bool {
	return !m.cfg.DisableExploration && s.explorer.Stage() != explore.StageStable
}

// setExplorationPool gives the session its base cores plus an even share of
// the free cores.
func (m *Manager) setExplorationPool(s *session, al *alloc.Allocation, free [][]int, nExploring int) {
	pool := make(map[platform.KindID][]int, len(m.cfg.Platform.Kinds))
	for _, g := range al.Grants {
		kind, err := m.cfg.Platform.KindOf(g.Core)
		if err != nil {
			continue
		}
		pool[kind] = append(pool[kind], g.Core)
	}
	if nExploring > 0 {
		for kind, cores := range free {
			if len(cores) == 0 {
				continue
			}
			take := len(cores) / nExploring
			pool[platform.KindID(kind)] = append(pool[platform.KindID(kind)], cores[:take]...)
			free[kind] = cores[take:]
		}
	}
	s.pool = pool
	s.bound = make([]int, len(m.cfg.Platform.Kinds))
	for kind, cores := range pool {
		s.bound[kind] = len(cores)
	}
}

// startExploration picks the session's next configuration and pushes it.
func (m *Manager) startExploration(s *session) error {
	if s.bound == nil {
		return explore.ErrNoCandidates
	}
	rv, err := s.explorer.Next(s.bound)
	if err != nil {
		return err
	}
	grants, err := m.grantsFromPool(s, rv)
	if err != nil {
		return err
	}
	m.push(s, Decision{
		Instance:  s.instance,
		Vector:    rv,
		Threads:   m.threadsFor(s, rv),
		Grants:    grants,
		Exploring: true,
	})
	return nil
}

// grantsFromPool maps an exploration vector onto the session's reserved
// cores.
func (m *Manager) grantsFromPool(s *session, rv platform.ResourceVector) ([]alloc.CoreGrant, error) {
	var grants []alloc.CoreGrant
	for kindIdx, counts := range rv.Counts {
		kind := platform.KindID(kindIdx)
		next := 0
		for tIdx, cores := range counts {
			for c := 0; c < cores; c++ {
				if next >= len(s.pool[kind]) {
					return nil, fmt.Errorf("core: exploration vector %v exceeds pool of %s", rv, s.instance)
				}
				grants = append(grants, alloc.CoreGrant{Core: s.pool[kind][next], Threads: tIdx + 1})
				next++
			}
		}
	}
	return grants, nil
}

// pushParked pushes the zero allocation a quarantined session holds: no
// cores, no thread change. Threads stays 0 ("leave unchanged") so a resumed
// application does not thrash its parallelisation on readmission. A session
// that is already parked is left alone without building anything.
func (m *Manager) pushParked(s *session) {
	if d := s.last; d != nil && d.Threads == 0 && !d.CoAllocated && !d.Exploring && len(d.Grants) == 0 &&
		len(d.Vector.Counts) == len(m.cfg.Platform.Kinds) && d.Vector.IsZero() {
		return
	}
	m.push(s, Decision{
		Instance: s.instance,
		Vector:   platform.NewResourceVector(m.cfg.Platform),
	})
}

// pushBase pushes an allocator decision unchanged. The allocation is
// compared with the standing decision first; the Decision — a vector clone
// and a heap-held struct — is only built when something actually moved.
func (m *Manager) pushBase(s *session, al *alloc.Allocation) {
	threads := m.threadsFor(s, al.Point.Vector)
	if d := s.last; d != nil && !d.Exploring && d.Threads == threads && d.CoAllocated == al.CoAllocated &&
		d.Vector.Equal(al.Point.Vector) && sameGrants(d.Grants, al.Grants) {
		return
	}
	m.commit(s, &Decision{
		Instance:        s.instance,
		Vector:          al.Point.Vector.Clone(),
		Threads:         threads,
		Grants:          al.Grants,
		CoAllocated:     al.CoAllocated,
		PredictedPowerW: al.Point.Power,
	})
}

// threadsFor derives the parallelisation degree from a vector: scalable and
// custom applications match threads to granted hardware threads; static
// applications cannot be rescaled (§4.1.3).
func (m *Manager) threadsFor(s *session, rv platform.ResourceVector) int {
	if s.adaptivity == workload.Static {
		return 0
	}
	return rv.Threads()
}

// push emits a decision if it differs from the session's last one.
func (m *Manager) push(s *session, d Decision) {
	if s.last != nil && sameDecision(s.last, &d) {
		return
	}
	m.commit(s, &d)
}

// commit makes d the session's standing decision and announces it. The
// decision's slices are shared with every receiver and must never be written
// again: Grants alias the solver's (immutable) grant list, Vector is the
// decision's own clone.
func (m *Manager) commit(s *session, d *Decision) {
	m.seq++
	d.Seq = m.seq
	m.setStanding(s, d)
	if m.cfg.Tracer.Enabled() { // guard: Key() builds a string
		m.cfg.Tracer.Emit(telemetry.Event{
			Kind:        telemetry.EvDecisionPushed,
			Instance:    d.Instance,
			App:         s.app,
			Vector:      d.Vector.Key(),
			Seq:         d.Seq,
			Power:       d.PredictedPowerW,
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			Vals:        [4]float64{float64(d.Threads), float64(len(d.Grants))},
		})
	}
	if mt := m.cfg.Metrics; mt != nil {
		mt.Decisions.Inc()
		if d.Exploring {
			mt.ExplorationSteps.Inc()
		}
	}
	if m.cfg.Journal.Enabled() {
		m.pendingOut = append(m.pendingOut, telemetry.EpochOutput{
			Instance:    d.Instance,
			Seq:         d.Seq,
			Vector:      d.Vector.Key(),
			Threads:     d.Threads,
			Cores:       len(d.Grants),
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			PredPowerW:  d.PredictedPowerW,
		})
	}
	for _, fn := range m.onDecide {
		fn(*d)
	}
}

// setStanding replaces the session's standing decision (nil = none) and
// moves the aggregates kept over all standing decisions with it: the power
// budget and the per-core holder counts behind harp_cores_granted.
func (m *Manager) setStanding(s *session, d *Decision) {
	if old := s.last; old != nil {
		m.standingPowerW -= old.PredictedPowerW
		if !old.CoAllocated {
			m.holdCores(old.Grants, -1)
		}
	}
	if d == nil {
		s.last = nil
		return
	}
	if s.last == nil {
		s.last = new(Decision)
	}
	*s.last = *d
	m.standingPowerW += d.PredictedPowerW
	if !d.CoAllocated {
		m.holdCores(d.Grants, +1)
	}
}

// holdCores adds (or releases) one isolated holder on each granted core and
// keeps the count of distinct held cores.
func (m *Manager) holdCores(grants []alloc.CoreGrant, delta int32) {
	for _, g := range grants {
		if g.Core < 0 || g.Core >= len(m.coreHolders) {
			continue
		}
		was := m.coreHolders[g.Core]
		m.coreHolders[g.Core] = was + delta
		switch {
		case was == 0 && delta > 0:
			m.coresGranted++
		case was+delta == 0 && delta < 0:
			m.coresGranted--
		}
	}
}

// sameDecision reports whether two decisions would look identical to the
// application: vector, threads, flags and the set of granted cores (order
// aside). Predicted power is deliberately not part of it.
func sameDecision(a, b *Decision) bool {
	return a.Threads == b.Threads && a.CoAllocated == b.CoAllocated && a.Exploring == b.Exploring &&
		a.Vector.Equal(b.Vector) && sameGrants(a.Grants, b.Grants)
}

// sameGrants compares two grant lists as multisets without allocating. The
// allocator assigns cores deterministically, so an unchanged decision
// usually repeats the list element for element and the positional scan
// settles it; only what follows the first mismatch is compared by counting,
// quadratic in a length bounded by the platform's core count.
func sameGrants(a, b []alloc.CoreGrant) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	a, b = a[i:], b[i:]
	for _, g := range a {
		na, nb := 0, 0
		for j := range a {
			if a[j] == g {
				na++
			}
			if b[j] == g {
				nb++
			}
		}
		if na != nb {
			return false
		}
	}
	return true
}
