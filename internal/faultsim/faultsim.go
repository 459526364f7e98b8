// Package faultsim provides deterministic fault injection for resilience
// testing. A Plan is a seeded, serialisable schedule of client failures
// (crashes, hangs, dropouts, slow readers, delayed writes); a Cursor replays
// it against any clock — harpsim's virtual time or a live server's wall
// time — so the same seed produces the same failure sequence and, in the
// simulator, byte-identical decision journals.
package faultsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind enumerates injectable failure modes.
type Kind string

// Failure modes. Crash, Hang and Dropout act at the session level and apply
// to both the live socket path and the simulator; SlowReader, Disconnect and
// DelayWrites are connection-level and only meaningful on real sockets.
const (
	// KindCrash kills the client silently: no exit message, no further
	// traffic, ever. The RM must reap the session via its liveness policy.
	KindCrash Kind = "crash"
	// KindHang freezes the client for Duration: it stops reading and
	// writing, then resumes as if nothing happened.
	KindHang Kind = "hang"
	// KindDropout crashes the client for Duration, after which it
	// reconnects and re-registers (the auto-reconnect path).
	KindDropout Kind = "dropout"
	// KindSlowReader stalls the client's reads for Duration, backing up the
	// RM's writes until the socket buffer fills.
	KindSlowReader Kind = "slow-reader"
	// KindDisconnect drops the connection abruptly; an auto-reconnect
	// client re-dials immediately.
	KindDisconnect Kind = "disconnect"
	// KindDelayWrites adds Duration of latency to every client write.
	KindDelayWrites Kind = "delay-writes"
	// KindRMCrash kills and restarts the resource manager itself (target
	// must be RMTarget): every session dies with it, and the RM comes back
	// warm from its state directory — or cold without one. Clients behave
	// like libharp's auto-reconnect: live ones re-register immediately,
	// muted ones when their own fault lifts.
	KindRMCrash Kind = "rm-crash"
	// KindSolverStall stalls the RM's primary MMKP solver for Duration
	// (target must be RMTarget): every epoch in the window exceeds its
	// deadline budget and must recover through the degradation ladder.
	KindSolverStall Kind = "solver-stall"
	// KindStoreIO makes the RM's durable-state writes fail transiently for
	// Duration (target must be RMTarget), exercising the store's
	// retry/backoff path and, when retries exhaust, durability-degraded
	// mode.
	KindStoreIO Kind = "store-io"
	// KindMachineKill permanently kills one fleet machine (target is the
	// machine ID, e.g. "m2"): its local manager stops, its heartbeats
	// cease, and the cluster coordinator must re-home every session it
	// owned. Cluster harnesses only.
	KindMachineKill Kind = "machine-kill"
	// KindCoordKill permanently kills the active fleet coordinator (target
	// must be CoordinatorTarget): the standby promotes itself from the
	// last shipped cluster snapshot and reconciles against the surviving
	// machines. Cluster harnesses only.
	KindCoordKill Kind = "coordinator-kill"
)

// RMTarget is the Fault.Target naming the resource manager itself, the
// victim of KindRMCrash.
const RMTarget = "rm"

// CoordinatorTarget is the Fault.Target naming the fleet coordinator, the
// victim of KindCoordKill.
const CoordinatorTarget = "coordinator"

// Valid reports whether k is a known failure mode.
func (k Kind) Valid() bool {
	switch k {
	case KindCrash, KindHang, KindDropout, KindSlowReader, KindDisconnect, KindDelayWrites,
		KindRMCrash, KindSolverStall, KindStoreIO, KindMachineKill, KindCoordKill:
		return true
	}
	return false
}

// ClusterKind reports whether the kind targets fleet infrastructure — a
// whole machine or the coordinator — rather than an application instance
// or the single-node RM. Cluster kinds are permanent (not Timed).
func (k Kind) ClusterKind() bool {
	switch k {
	case KindMachineKill, KindCoordKill:
		return true
	}
	return false
}

// Timed reports whether the kind carries a meaningful Duration.
func (k Kind) Timed() bool {
	switch k {
	case KindHang, KindDropout, KindSlowReader, KindDelayWrites, KindSolverStall, KindStoreIO:
		return true
	}
	return false
}

// RMKind reports whether the kind targets the resource manager itself
// (Target must be RMTarget) rather than an application instance.
func (k Kind) RMKind() bool {
	switch k {
	case KindRMCrash, KindSolverStall, KindStoreIO:
		return true
	}
	return false
}

// SimKinds are the failure modes injectable into the simulator's session
// model (no real sockets there).
func SimKinds() []Kind { return []Kind{KindCrash, KindHang, KindDropout} }

// Fault is one scheduled failure.
type Fault struct {
	// At is the injection time as an offset from the plan's start.
	At time.Duration `json:"at"`
	// Target is the victim instance (e.g. "ep.C" or "mg.C/21").
	Target string `json:"target"`
	// Kind is the failure mode.
	Kind Kind `json:"kind"`
	// Duration bounds timed faults (hang, dropout, slow-reader,
	// delay-writes); ignored for the others.
	Duration time.Duration `json:"duration,omitempty"`
}

// Plan is a deterministic fault schedule, sorted by injection time.
type Plan struct {
	// Seed records the generator seed (0 for hand-written plans).
	Seed int64 `json:"seed"`
	// Faults are the scheduled failures in injection order.
	Faults []Fault `json:"faults"`
}

// Generate builds a reproducible plan: the same seed, targets, horizon and
// kind set always yield the identical schedule. Injection times land in
// [horizon/10, horizon·9/10] so sessions exist before the first fault and
// the run can observe recovery after the last. An empty kinds list selects
// SimKinds — the session-level faults every harness understands.
func Generate(seed int64, targets []string, horizon time.Duration, n int, kinds ...Kind) *Plan {
	if len(kinds) == 0 {
		kinds = SimKinds()
	}
	rng := rand.New(rand.NewSource(seed))
	lo := horizon / 10
	span := horizon*9/10 - lo
	p := &Plan{Seed: seed, Faults: make([]Fault, 0, n)}
	for i := 0; i < n; i++ {
		f := Fault{
			At:     lo + time.Duration(rng.Int63n(int64(span)+1)),
			Target: targets[rng.Intn(len(targets))],
			Kind:   kinds[rng.Intn(len(kinds))],
		}
		if f.Kind.Timed() {
			// 100 ms .. 2 s, enough to straddle liveness deadlines.
			f.Duration = 100*time.Millisecond + time.Duration(rng.Int63n(int64(1900*time.Millisecond)))
		}
		p.Faults = append(p.Faults, f)
	}
	p.sort()
	return p
}

// sort orders faults by time with a deterministic tiebreak.
func (p *Plan) sort() {
	sort.SliceStable(p.Faults, func(i, j int) bool {
		a, b := p.Faults[i], p.Faults[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Kind < b.Kind
	})
}

// Validate checks the plan: known kinds, named targets, non-negative times,
// sorted schedule.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	var prev time.Duration
	for i, f := range p.Faults {
		if !f.Kind.Valid() {
			return fmt.Errorf("faultsim: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Target == "" {
			return fmt.Errorf("faultsim: fault %d: empty target", i)
		}
		if f.At < 0 || f.Duration < 0 {
			return fmt.Errorf("faultsim: fault %d: negative time", i)
		}
		if f.Kind.Timed() && f.Duration == 0 {
			return fmt.Errorf("faultsim: fault %d: %s without duration", i, f.Kind)
		}
		if f.Kind.RMKind() && f.Target != RMTarget {
			return fmt.Errorf("faultsim: fault %d: %s must target %q, got %q", i, f.Kind, RMTarget, f.Target)
		}
		if f.Kind == KindCoordKill && f.Target != CoordinatorTarget {
			return fmt.Errorf("faultsim: fault %d: %s must target %q, got %q", i, f.Kind, CoordinatorTarget, f.Target)
		}
		if f.At < prev {
			return fmt.Errorf("faultsim: fault %d: out of order (%v after %v)", i, f.At, prev)
		}
		prev = f.At
	}
	return nil
}

// Cursor walks a plan in time order, handing out the faults that have come
// due. Not safe for concurrent use; drive it from one clock.
type Cursor struct {
	faults []Fault
	next   int
}

// Cursor returns a fresh cursor over the plan. A nil plan yields an empty
// cursor.
func (p *Plan) Cursor() *Cursor {
	if p == nil {
		return &Cursor{}
	}
	return &Cursor{faults: p.Faults}
}

// Due returns, in order, every not-yet-delivered fault with At <= now.
func (c *Cursor) Due(now time.Duration) []Fault {
	start := c.next
	for c.next < len(c.faults) && c.faults[c.next].At <= now {
		c.next++
	}
	if c.next == start {
		return nil
	}
	return c.faults[start:c.next]
}
