package telemetry

import (
	"sort"
	"sync"
	"time"
)

// EnergyLedger integrates each session's smoothed power over tracer-clock
// time into cumulative joules, attributed per session and to the fleet, and
// utility over the same base into per-session utility-seconds. A nil
// ledger is a valid no-op on every method, and Observe on the hot path
// allocates nothing once a session's entry exists.
//
// Integration is trapezoidal between consecutive observations of the same
// session: dJ = dt·(p0+p1)/2. The fleet total is maintained incrementally —
// every dJ added to a session is added to the fleet — so the conservation
// invariant Σ active-session joules + retired joules == fleet joules holds
// exactly, not just within tolerance.
//
// The clock is injectable like the tracer's: harpsim rebinds it to the
// machine's virtual clock so same-seed runs account identical joules, and
// harpd binds it to wall time since server start.
type EnergyLedger struct {
	mu       sync.Mutex
	clock    func() time.Duration
	sessions map[string]*sessionEnergy

	fleetJoules float64 // cumulative, includes retired
	fleetPowerW float64 // Σ last observed power of active sessions
	fleetLastAt time.Duration
	fleetSeen   bool

	budgetW    float64 // current power budget (0 = none)
	overrunSec float64 // cumulative seconds with fleetPowerW > budgetW

	retiredJoules float64 // folded in from ended sessions

	// Optional metric bindings; all nil-safe.
	totalCounter   *FloatCounter // harp_energy_joules_total
	overrunCounter *FloatCounter // harp_budget_overrun_seconds_total
}

type sessionEnergy struct {
	joules    float64
	utilS     float64
	lastAt    time.Duration
	lastPower float64
	lastUtil  float64
	seen      bool // at least one observation since create/seed
}

// SessionEnergy is one row of the ledger's per-session view.
type SessionEnergy struct {
	Instance string
	Joules   float64
	UtilityS float64
}

// Efficiency returns utility-seconds bought per joule (0 when no energy has
// been attributed yet).
func (s SessionEnergy) Efficiency() float64 {
	if s.Joules <= 0 {
		return 0
	}
	return s.UtilityS / s.Joules
}

// EnergyTotals is a consistent snapshot of the ledger's fleet accumulators.
type EnergyTotals struct {
	Joules     float64 // cumulative fleet joules (includes retired)
	PowerW     float64 // current Σ power of active sessions
	BudgetW    float64 // current budget (0 = none set)
	OverrunSec float64 // cumulative seconds fleet power exceeded budget
}

// NewEnergyLedger returns a ledger on a wall-clock-since-creation time base;
// rebind with SetClock before first use for virtual time.
func NewEnergyLedger() *EnergyLedger {
	start := time.Now()
	return &EnergyLedger{
		clock:    func() time.Duration { return time.Since(start) },
		sessions: make(map[string]*sessionEnergy),
	}
}

// SetClock rebinds the ledger's time base. Call before any observation:
// integration across a clock swap is meaningless.
func (l *EnergyLedger) SetClock(clock func() time.Duration) {
	if l == nil || clock == nil {
		return
	}
	l.mu.Lock()
	l.clock = clock
	l.mu.Unlock()
}

// BindMetrics attaches the ledger's metric outputs: the fleet joule counter
// and the budget-overrun counter. Either may be nil. Per-session joules have
// no metric: they are read from the ledger (Sessions) by the status surface.
func (l *EnergyLedger) BindMetrics(total, overrun *FloatCounter) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.totalCounter = total
	l.overrunCounter = overrun
	l.mu.Unlock()
}

// Observe accounts one measurement sample for a session: utility and
// smoothed power at the current ledger-clock time. The first observation of
// a session only anchors the trapezoid; energy accrues from the second on.
func (l *EnergyLedger) Observe(instance string, utility, power float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	now := l.clock()
	l.advanceFleet(now)
	s := l.sessions[instance]
	if s == nil {
		s = &sessionEnergy{}
		l.sessions[instance] = s
	} else if s.seen && now > s.lastAt {
		dt := (now - s.lastAt).Seconds()
		dJ := dt * (power + s.lastPower) / 2
		dU := dt * (utility + s.lastUtil) / 2
		s.joules += dJ
		s.utilS += dU
		l.fleetJoules += dJ
		if l.totalCounter != nil {
			l.totalCounter.Add(dJ)
		}
	}
	if s.seen {
		l.fleetPowerW -= s.lastPower
	}
	l.fleetPowerW += power
	s.lastAt = now
	s.lastPower = power
	s.lastUtil = utility
	s.seen = true
	l.mu.Unlock()
}

// advanceFleet integrates budget overrun up to now (left Riemann on the
// fleet power as of the previous advance) and moves the fleet time cursor.
// Caller holds l.mu.
func (l *EnergyLedger) advanceFleet(now time.Duration) {
	if l.fleetSeen && now > l.fleetLastAt && l.budgetW > 0 && l.fleetPowerW > l.budgetW {
		dt := (now - l.fleetLastAt).Seconds()
		l.overrunSec += dt
		if l.overrunCounter != nil {
			l.overrunCounter.Add(dt)
		}
	}
	if !l.fleetSeen || now > l.fleetLastAt {
		l.fleetLastAt = now
		l.fleetSeen = true
	}
}

// SetBudget sets the fleet power budget (watts; 0 clears it). Overrun
// seconds before the change are settled against the old budget.
func (l *EnergyLedger) SetBudget(watts float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.advanceFleet(l.clock())
	l.budgetW = watts
	l.mu.Unlock()
}

// EndSession folds a departed session's accumulators into the retired
// totals and drops its entry. Fleet totals are
// unchanged: the session's joules were already counted there.
func (l *EnergyLedger) EndSession(instance string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if s := l.sessions[instance]; s != nil {
		if s.seen {
			l.fleetPowerW -= s.lastPower
		}
		l.retiredJoules += s.joules
		delete(l.sessions, instance)
	}
	l.mu.Unlock()
}

// Totals returns a consistent snapshot of the fleet accumulators.
func (l *EnergyLedger) Totals() EnergyTotals {
	if l == nil {
		return EnergyTotals{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return EnergyTotals{
		Joules:     l.fleetJoules,
		PowerW:     l.fleetPowerW,
		BudgetW:    l.budgetW,
		OverrunSec: l.overrunSec,
	}
}

// Sessions returns the active per-session rows sorted by instance.
func (l *EnergyLedger) Sessions() []SessionEnergy {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SessionEnergy, 0, len(l.sessions))
	for inst, s := range l.sessions {
		out = append(out, SessionEnergy{
			Instance: inst,
			Joules:   s.joules,
			UtilityS: s.utilS,
		})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// EnergyState is the ledger's durable form, persisted in store.State so
// joules survive a warm restart. Active sessions are listed individually;
// ended sessions ride in the retired aggregates.
type EnergyState struct {
	FleetJoules   float64              `json:"fleetJoules"`
	OverrunSec    float64              `json:"overrunSec,omitempty"`
	RetiredJoules float64              `json:"retiredJoules,omitempty"`
	Sessions      []SessionEnergyState `json:"sessions,omitempty"`
}

// SessionEnergyState is one persisted per-session accumulator pair.
type SessionEnergyState struct {
	Instance string  `json:"instance"`
	Joules   float64 `json:"joules"`
	UtilityS float64 `json:"utilityS,omitempty"`
}

// Clone deep-copies the state (nil in, nil out).
func (st *EnergyState) Clone() *EnergyState {
	if st == nil {
		return nil
	}
	out := *st
	out.Sessions = append([]SessionEnergyState(nil), st.Sessions...)
	return &out
}

// Export snapshots the ledger for persistence (sessions sorted by instance
// for deterministic serialization). Nil ledger exports nil.
func (l *EnergyLedger) Export() *EnergyState {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	st := &EnergyState{
		FleetJoules:   l.fleetJoules,
		OverrunSec:    l.overrunSec,
		RetiredJoules: l.retiredJoules,
	}
	for inst, s := range l.sessions {
		st.Sessions = append(st.Sessions, SessionEnergyState{
			Instance: inst,
			Joules:   s.joules,
			UtilityS: s.utilS,
		})
	}
	l.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Instance < st.Sessions[j].Instance })
	return st
}

// Seed resets the ledger to a recovered state: accumulators restored,
// integration re-anchored (seeded sessions accrue again from their next
// observation — no energy is invented for the downtime). The Prometheus
// counters bound via BindMetrics are deliberately NOT rewound or advanced:
// counters track joules attributed by this process and keep normal
// counter-reset semantics; recovered totals surface through Totals and the
// journal instead. Seed(nil) only clears the session table.
func (l *EnergyLedger) Seed(st *EnergyState) {
	if l == nil {
		return
	}
	l.mu.Lock()
	clear(l.sessions)
	l.fleetPowerW = 0
	l.fleetSeen = false
	if st != nil {
		l.fleetJoules = st.FleetJoules
		l.overrunSec = st.OverrunSec
		l.retiredJoules = st.RetiredJoules
		for _, s := range st.Sessions {
			l.sessions[s.Instance] = &sessionEnergy{joules: s.Joules, utilS: s.UtilityS}
		}
	}
	l.mu.Unlock()
}
