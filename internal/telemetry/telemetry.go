// Package telemetry makes HARP's 50 ms adaptation loop observable
// (measure → learn → allocate → push, §5.3): a ring-buffered structured
// event tracer, a metrics registry exported in Prometheus text format, a
// per-epoch JSONL decision journal, and a Chrome trace_event exporter for
// Perfetto/about:tracing.
//
// All of it is stdlib-only and built around two rules:
//
//   - Zero cost when disabled. A nil *Tracer, *Journal or *Metrics is a
//     valid no-op: every method checks its receiver, events are plain value
//     structs (no interface boxing), and instrumented hot paths perform no
//     allocations when telemetry is off.
//
//   - Deterministic-replay safe. The tracer never reads the wall clock by
//     itself in simulated paths: timestamps come from an injected clock
//     (harpsim injects the machine's virtual clock; harpd injects wall time
//     since startup), so two runs of the same scenario produce bit-identical
//     event streams.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"
)

// EventKind identifies one step of the adaptation loop.
type EventKind uint8

// Event kinds, in typical flow order.
const (
	// EvSessionRegistered: an application registered with the RM.
	EvSessionRegistered EventKind = iota + 1
	// EvSessionExited: a session deregistered (exit or broken peer).
	EvSessionExited
	// EvMeasureSample: one smoothed (utility, power) sample entered the RM.
	EvMeasureSample
	// EvTableUpdated: an exploration point completed and was committed to
	// the application's operating-point table.
	EvTableUpdated
	// EvExplorationStep: the explorer picked the next configuration to
	// measure.
	EvExplorationStep
	// EvAllocationComputed: the MMKP solver produced a system-wide
	// allocation (Vals[0] = λ iterations, Vals[1] = candidate count,
	// Vals[2] = co-allocated apps).
	EvAllocationComputed
	// EvDecisionPushed: a changed decision was pushed to an application.
	EvDecisionPushed
	// EvMonitorSample: the monitor read all tracked processes for one tick
	// (Vals[k] = busy hardware-thread seconds on core kind k).
	EvMonitorSample
	// EvAppSample: raw per-application counters for one tick (Utility = raw
	// IPS, Power = raw watts, Vals[0/1] = smoothed IPS/power).
	EvAppSample
	// EvPhaseChange: an application announced an execution-stage change.
	EvPhaseChange
	// EvSessionSuspect: a session missed its liveness deadline and is
	// suspected dead (Stage carries the reason, e.g. "silent" or
	// "write-failed").
	EvSessionSuspect
	// EvSessionQuarantined: a suspect session stayed silent past the
	// quarantine deadline — learning frozen, cores reclaimed.
	EvSessionQuarantined
	// EvSessionReadmitted: a suspect or quarantined session resumed
	// reporting and was restored to normal management.
	EvSessionReadmitted
	// EvSessionReaped: the liveness reaper deregistered a dead session
	// (as opposed to a voluntary exit, which is EvSessionExited).
	EvSessionReaped
	// EvStateRecovered: the RM imported durable state on startup (Seq =
	// recovered generation, Vals[0] = replayed tables, Vals[1] = prior
	// sessions, Vals[2] = replayed WAL records; Stage carries "cold" when
	// recovery fell back to an empty store).
	EvStateRecovered
	// EvSnapshotWritten: a full state snapshot was persisted (Seq = decision
	// sequence high-water at the time, Vals[0] = snapshot bytes).
	EvSnapshotWritten
	// EvSessionRejected: a registration was refused by admission control
	// (Stage carries the reason, e.g. "max-sessions").
	EvSessionRejected
	// EvSpanBegin: a flight-recorder phase opened (Stage = phase label).
	// Rendered as a Chrome "B" duration event; see BeginPhase.
	EvSpanBegin
	// EvSpanEnd: the matching phase close ("E" duration event).
	EvSpanEnd
	// EvEpochDegraded: the epoch's primary solve failed or blew its deadline
	// budget and a degradation-ladder rung resolved the epoch instead (Stage
	// = rung: degraded-greedy, degraded-stale or frozen).
	EvEpochDegraded
	// EvSessionPanicked: a session's inputs made the solver panic; the
	// session was quarantined to isolate the poisonous table (Stage carries
	// the truncated panic value).
	EvSessionPanicked
	// EvStoreDegraded: the durable-state store exhausted its write retries
	// and entered durability-degraded mode (Stage = "degraded"), or a later
	// successful write healed it (Stage = "healed").
	EvStoreDegraded
	// EvClusterPlaced: the fleet coordinator placed a session onto a
	// machine (Stage = machine ID, Power = admitted worst-case demand W).
	EvClusterPlaced
	// EvClusterMigrated: a session finished migrating between machines
	// (Stage = "src→dst"; the remove half of the move was journalled when
	// the migration started).
	EvClusterMigrated
	// EvClusterMachineDead: the coordinator declared a machine dead after
	// missed heartbeats (Stage = machine ID, Vals[0] = orphaned sessions).
	EvClusterMachineDead
	// EvClusterFailover: the standby coordinator promoted itself after the
	// primary died (Vals[0] = sessions recovered from the shipped snapshot,
	// Vals[1] = orphans queued for re-homing).
	EvClusterFailover
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSessionRegistered:
		return "session-registered"
	case EvSessionExited:
		return "session-exited"
	case EvMeasureSample:
		return "measure-sample"
	case EvTableUpdated:
		return "table-updated"
	case EvExplorationStep:
		return "exploration-step"
	case EvAllocationComputed:
		return "allocation-computed"
	case EvDecisionPushed:
		return "decision-pushed"
	case EvMonitorSample:
		return "monitor-sample"
	case EvAppSample:
		return "app-sample"
	case EvPhaseChange:
		return "phase-change"
	case EvSessionSuspect:
		return "session-suspect"
	case EvSessionQuarantined:
		return "session-quarantined"
	case EvSessionReadmitted:
		return "session-readmitted"
	case EvSessionReaped:
		return "session-reaped"
	case EvStateRecovered:
		return "state-recovered"
	case EvSnapshotWritten:
		return "snapshot-written"
	case EvSessionRejected:
		return "session-rejected"
	case EvSpanBegin:
		return "span-begin"
	case EvSpanEnd:
		return "span-end"
	case EvEpochDegraded:
		return "epoch-degraded"
	case EvSessionPanicked:
		return "session-panicked"
	case EvStoreDegraded:
		return "store-degraded"
	case EvClusterPlaced:
		return "cluster-placed"
	case EvClusterMigrated:
		return "cluster-migrated"
	case EvClusterMachineDead:
		return "cluster-machine-dead"
	case EvClusterFailover:
		return "cluster-failover"
	default:
		return "event(?)"
	}
}

// MarshalJSON renders the kind as its string name, so serialized event
// streams (harpctl trace dump) are readable without the constant table.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON is MarshalJSON's inverse, so control-socket clients decode
// Events directly. An unknown name decodes to the zero kind.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	*k = 0
	for c := EvSessionRegistered; c <= EvClusterFailover; c++ {
		if c.String() == name {
			*k = c
			break
		}
	}
	return nil
}

// Event is one typed trace record. It is a plain value struct so emitting
// one never allocates; kind-specific numerics ride in Vals (see the kind
// constants for each layout).
type Event struct {
	// At is the event time on the tracer's clock (virtual time in harpsim,
	// wall time since startup in harpd).
	At time.Duration `json:"at"`
	// Kind identifies the adaptation-loop step.
	Kind EventKind `json:"kind"`
	// Instance is the session instance ("app/pid"), when applicable.
	Instance string `json:"instance,omitempty"`
	// App is the application name, when applicable.
	App string `json:"app,omitempty"`
	// Vector is the canonical extended-resource-vector key, when applicable.
	Vector string `json:"vector,omitempty"`
	// Stage is the exploration stage or reallocation trigger label.
	Stage string `json:"stage,omitempty"`
	// Seq is the decision sequence number (EvDecisionPushed) or a
	// kind-specific count.
	Seq int `json:"seq,omitempty"`
	// Utility and Power carry the sample values, when applicable.
	Utility float64 `json:"utility,omitempty"`
	Power   float64 `json:"power,omitempty"`
	// Vals holds kind-specific numerics (per-kind occupancy, λ iterations…).
	Vals [4]float64 `json:"vals"`
	// Exploring and CoAllocated mirror the decision flags.
	Exploring   bool `json:"exploring,omitempty"`
	CoAllocated bool `json:"coAllocated,omitempty"`
}

// DefaultCapacity is the tracer ring size when none is given — at the 50 ms
// cadence it holds several minutes of adaptation-loop history.
const DefaultCapacity = 8192

// Tracer is a fixed-capacity ring buffer of Events, safe for concurrent
// use. A nil *Tracer is a valid disabled tracer: Emit is a no-op and Now
// returns 0, so instrumented code needs no nil checks of its own.
type Tracer struct {
	mu    sync.Mutex
	clock func() time.Duration
	buf   []Event
	next  int
	total uint64
	drops *Counter
}

// NewTracer creates a tracer holding the last capacity events (<= 0 selects
// DefaultCapacity). The default clock is wall time since creation; callers
// driving simulated time must inject their virtual clock via SetClock
// before emitting.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	start := time.Now()
	return &Tracer{
		clock: func() time.Duration { return time.Since(start) },
		buf:   make([]Event, 0, capacity),
	}
}

// SetClock replaces the tracer's clock (harpsim injects machine.Now so the
// event stream is deterministic). No-op on a nil tracer.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil || clock == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// Enabled reports whether events are being recorded. Hot paths use it to
// skip building event fields (e.g. vector keys) when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current time on the tracer's clock (0 when nil).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	now := t.clock()
	t.mu.Unlock()
	return now
}

// CountDrops binds a counter (typically harp_tracer_dropped_total) that is
// incremented each time a full ring evicts an event, so consumers can alert
// on trace gaps instead of discovering them via Dropped(). No-op on a nil
// tracer or counter.
func (t *Tracer) CountDrops(c *Counter) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.drops = c
	t.mu.Unlock()
}

// Emit stamps the event with the tracer's clock and records it, evicting
// the oldest event when the ring is full. No-op (and allocation-free) on a
// nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.emit(ev)
}

// emit is the non-nil core of Emit; it returns the stamped timestamp so
// BeginPhase can capture the span start with a single lock acquisition.
func (t *Tracer) emit(ev Event) time.Duration {
	t.mu.Lock()
	at := t.clock()
	ev.At = at
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next = (t.next + 1) % len(t.buf)
		t.drops.Inc()
	}
	t.total++
	t.mu.Unlock()
	return at
}

// Events returns a snapshot of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Tail returns a snapshot of the most recent n events, oldest first
// (n <= 0 returns everything).
func (t *Tracer) Tail(n int) []Event {
	evs := t.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Total returns how many events were emitted over the tracer's lifetime,
// including those evicted from the ring.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}
