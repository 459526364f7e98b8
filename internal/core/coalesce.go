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
//   - Mutating ops return without solving (unless their event hits the
//     dirty bound and flushes inline).
//   - Measure-triggered epochs (exploration, graduation, cadence) stay
//     inline; a pending epoch is absorbed by any inline solve, since every
//     solve covers all sessions.
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
}

// epochAfter is the epoch trigger for mutating operations: solve inline when
// coalescing is off, otherwise enqueue the pending epoch and flush only at
// the dirty-event bound.
func (m *Manager) epochAfter(trigger string) {
	if !m.cfg.Coalesce.Enabled {
		m.reallocate(trigger)
		return
	}
	m.pendingEvents++
	if m.pendingEpoch {
		m.pendingTrigger = TriggerCoalesced
	} else {
		m.pendingEpoch = true
		m.pendingTrigger = trigger
	}
	if m.pendingEvents >= m.maxDirty {
		m.flushPending()
	}
}

// Tick is the adaptation tick (the embedding layer's 50 ms loop calls it
// once per tick): a pending epoch waits for at most one tick, so Tick is
// Flush. A no-op without a pending epoch or with coalescing disabled.
func (m *Manager) Tick() error { return m.Flush() }

// Flush forces the pending coalesced epoch to solve now; a no-op when
// nothing is pending. Embedding layers call it before snapshots or shutdown
// so no batched events are lost. The error result is always nil: a failed
// solve degrades the epoch instead.
func (m *Manager) Flush() error {
	if m.pendingEpoch {
		m.flushPending()
	}
	return nil
}

// flushPending runs the batched epoch (reallocate clears the pending state).
func (m *Manager) flushPending() { m.reallocate(m.pendingTrigger) }

// resetPending drops a queued coalesced epoch. reallocate calls it: every
// solve covers all sessions, so any solve satisfies the pending epoch.
func (m *Manager) resetPending() {
	m.pendingEpoch = false
	m.pendingTrigger = ""
	m.pendingEvents = 0
}
