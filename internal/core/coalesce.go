package core

// Epoch coalescing: batch the epochs that mutating operations trigger.
//
// Without coalescing every Register/Deregister/UploadTable/PhaseChange runs
// a full global solve inline — a 1k-session registration storm costs 1k
// solves, the O(full-solve-per-event) pathology from ROADMAP.md. With
// coalescing enabled, mutating operations enqueue one pending epoch instead:
// the solve runs when the embedding layer's adaptation tick observes the
// pending epoch (Tick), or immediately when the dirty-event bound is hit, so
// the storm costs one solve.
//
// What changes for callers when coalescing is on:
//
//   - Mutating ops return nil without solving (unless their event hits the
//     dirty bound and flushes inline). Solver failures therefore surface at
//     flush time — in the decision journal's error epochs and through Tick's
//     return value — not from the mutating call.
//   - Register keeps the session even when a flush it triggered fails: the
//     failed epoch covers many sessions, so evicting the one that happened
//     to trip the bound would be arbitrary. The rollback path (and its
//     restart-continuity stash) only exists for inline solves.
//   - Measure-triggered epochs (exploration, graduation, cadence) and manual
//     Reallocate stay inline; a pending epoch is absorbed by any inline
//     solve, since every solve covers all sessions.
//
// The coalesced trigger label is the sole event's trigger when exactly one
// event is pending, or "coalesced" when a burst was batched, so journals
// stay attributable.

import "time"

// AdaptationTick is the 50 ms adaptation-loop cadence (§4.1.1) — the period
// the embedding layer calls Tick at, and the latency budget a coalesced
// epoch's solve must fit inside.
const AdaptationTick = 50 * time.Millisecond

// DefaultCoalesceMaxDirty is the dirty-event bound: a pending epoch flushes
// immediately once this many mutating events have accumulated, keeping
// worst-case staleness bounded even if the embedding layer stops ticking.
const DefaultCoalesceMaxDirty = 256

// TriggerCoalesced labels journal epochs that cover more than one batched
// mutating event.
const TriggerCoalesced = "coalesced"

// CoalescePolicy configures epoch coalescing (Config.Coalesce). The zero
// value disables coalescing, preserving the historical solve-per-event
// behaviour byte for byte.
type CoalescePolicy struct {
	// Enabled turns coalescing on.
	Enabled bool
	// MaxDirty flushes the pending epoch immediately once this many mutating
	// events have accumulated (0 selects DefaultCoalesceMaxDirty). Tests
	// lower it to exercise the bound; production uses the default.
	MaxDirty int
}

func (p CoalescePolicy) maxDirty() int {
	if p.MaxDirty > 0 {
		return p.MaxDirty
	}
	return DefaultCoalesceMaxDirty
}

// epochAfter is the epoch trigger for mutating operations: solve inline when
// coalescing is off, otherwise enqueue the pending epoch and flush only at
// the dirty-event bound.
func (m *Manager) epochAfter(trigger string) error {
	if !m.cfg.Coalesce.Enabled {
		return m.reallocate(trigger)
	}
	m.pendingEvents++
	if m.pendingEpoch {
		m.pendingTrigger = TriggerCoalesced
	} else {
		m.pendingEpoch = true
		m.pendingTrigger = trigger
	}
	if m.pendingEvents >= m.cfg.Coalesce.maxDirty() {
		return m.flushPending()
	}
	return nil
}

// Tick is the adaptation tick (the embedding layer's 50 ms loop calls it
// once per tick): a pending epoch waits for at most one tick, so Tick is
// Flush. A no-op without a pending epoch or with coalescing disabled.
func (m *Manager) Tick() error { return m.Flush() }

// Flush forces the pending coalesced epoch to solve now; a no-op when
// nothing is pending. Embedding layers call it before snapshots or shutdown
// so no batched events are lost.
func (m *Manager) Flush() error {
	if !m.pendingEpoch {
		return nil
	}
	return m.flushPending()
}

// PendingEpoch reports whether a coalesced epoch is queued and how many
// mutating events it covers.
func (m *Manager) PendingEpoch() (pending bool, events int) {
	return m.pendingEpoch, m.pendingEvents
}

// flushPending runs the batched epoch. The deferred-events metric counts
// events beyond the first — the solves coalescing saved.
func (m *Manager) flushPending() error {
	trigger := m.pendingTrigger
	events := m.pendingEvents
	m.resetPending()
	if events > 1 {
		if mt := m.cfg.Metrics; mt != nil {
			mt.EpochsCoalesced.Add(uint64(events - 1))
		}
	}
	return m.reallocate(trigger)
}

// absorbPending folds a queued coalesced epoch into an inline solve that is
// about to run anyway (cadence, graduation, manual Reallocate): every solve
// covers all sessions, so the pending epoch is satisfied and all its events
// count as coalesced. Called from reallocate.
func (m *Manager) absorbPending() {
	if !m.pendingEpoch {
		return
	}
	events := m.pendingEvents
	m.resetPending()
	if mt := m.cfg.Metrics; mt != nil {
		mt.EpochsCoalesced.Add(uint64(events))
	}
}

func (m *Manager) resetPending() {
	m.pendingEpoch = false
	m.pendingTrigger = ""
	m.pendingEvents = 0
}
