// Package core implements the HARP resource manager (§4): the paper's
// primary contribution. A Manager tracks registered applications (sessions),
// maintains their operating-point tables (offline-supplied or learned online
// through internal/explore), solves the energy-efficient allocation problem
// (internal/alloc), and pushes decisions back to applications through a
// caller-supplied callback — the two-way coordination channel.
//
// The Manager is transport- and time-agnostic: the harp package drives it
// from Unix-socket sessions and wall-clock timers, while harpsim drives it
// from the simulator's virtual clock. It is not goroutine-safe; the embedding
// layer serialises calls.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// DefaultReallocEvery is how many stable-stage measurements pass between
// allocation reassessments (§5.3: every 100 measurements).
const DefaultReallocEvery = 100

// DefaultEpochBudget is the default per-solve deadline budget: a fraction
// of the 50 ms adaptation tick, leaving headroom for the push and journal
// phases. Enforced only when Config.LatencyClock is wired (live servers);
// simulated runs have no wall deadline and rely on the error/stall rungs.
const DefaultEpochBudget = 20 * time.Millisecond

// Common errors.
var (
	// ErrUnknownSession is returned for operations on unregistered
	// instances.
	ErrUnknownSession = errors.New("core: unknown session")
	// ErrDuplicateSession is returned when an instance registers twice.
	ErrDuplicateSession = errors.New("core: session already registered")
)

// errSolverStalled stands in for the primary solver when an injected or
// detected stall skips it (degradation-ladder entry).
var errSolverStalled = errors.New("core: solver stalled past its deadline budget")

// Decision is one allocation pushed to an application (§4.1.1 step 3).
type Decision struct {
	// Instance is the registered application instance.
	Instance string
	// Seq orders decisions globally.
	Seq int
	// Vector is the activated extended resource vector.
	Vector platform.ResourceVector
	// Threads is the parallelisation degree for scalable/custom apps
	// (0 = leave unchanged, used for static apps).
	Threads int
	// Grants are the concrete cores assigned.
	Grants []alloc.CoreGrant
	// CoAllocated warns that the cores are time-shared with other apps.
	CoAllocated bool
	// Exploring marks an exploration configuration rather than a
	// cost-optimal stable allocation.
	Exploring bool
	// PredictedPowerW is the selected operating point's predicted power
	// draw — the application's slice of the system power budget (0 for
	// exploration probes, which have no prediction yet).
	PredictedPowerW float64
}

// SessionInfo is a read-only session summary.
type SessionInfo struct {
	Instance    string
	App         string
	Adaptivity  workload.Adaptivity
	OwnUtility  bool
	Stage       explore.Stage
	CoAllocated bool
	Measured    int
	// Phase is the application-announced execution stage (§7 outlook
	// extension; empty if never announced).
	Phase string
	// Liveness is the session's health state (live, suspect, quarantined).
	Liveness Liveness
	// LastReportAgeSec is the silence age the embedding layer observed when
	// the summary was taken (-1 when the embedder does not track liveness).
	LastReportAgeSec float64
	// Utility and Power are the last smoothed sample fed to Measure.
	Utility float64
	Power   float64
	// Vector, Threads, Cores, Seq and Exploring summarise the session's
	// standing decision (zero values before the first push).
	Vector    string
	Threads   int
	Cores     int
	Seq       int
	Exploring bool
}

// Allocator solves the MMKP for the manager. *alloc.Allocator and
// *alloc.Sharded are the production implementations; the indirection exists
// so correctness tests can inject failing or instrumented solvers and verify
// that allocation errors surface in the decision journal instead of turning
// into bad decisions.
//
// The contract beyond the signature:
//
//   - Order. The result has one allocation per input, in input order.
//   - Ownership. The returned allocations, their grant lists and
//     Stats.Changed belong to the solver: the Manager only reads them, and
//     only until it calls the solver again. What it keeps beyond that — a
//     pushed Decision — holds its own clone of the vector and shares the grant
//     list, which a solver must therefore never write again once returned.
//     A wrapper that forwards a solve (the benchmark's tracing seam does)
//     passes allocations and Stats through untouched.
//   - Delta. Stats.Changed, when non-nil, lists the input positions whose
//     allocation may differ from the solver's previous successful answer for
//     the same ID (see alloc.Stats). The Manager then pushes only those
//     sessions, plus the ones whose standing decision is not simply the
//     solver's answer (epoch.go). nil — what any solver that does not track
//     deltas returns — makes the epoch walk every session, which is always
//     correct.
type Allocator interface {
	AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error)
}

// Config configures a Manager.
type Config struct {
	// Platform is the hardware description (required).
	Platform *platform.Platform
	// Allocator solves the MMKP; nil builds a default Lagrangian allocator.
	Allocator Allocator
	// Explore tunes runtime exploration.
	Explore explore.Config
	// OfflineTables maps application names to pre-generated operating-point
	// tables (the /etc/harp directory, §4.3).
	OfflineTables map[string]*opoint.Table
	// DisableExploration turns off online exploration — the HARP (Offline)
	// configuration, mandatory on platforms without simultaneous PMU access
	// such as the Odroid XU3-E (§6.4).
	DisableExploration bool
	// ReallocEvery is the stable-stage reallocation cadence in
	// measurements; 0 selects DefaultReallocEvery.
	ReallocEvery int
	// Tracer receives structured adaptation-loop events (nil disables
	// tracing). It is also handed to the explorers and, when Allocator is
	// nil, to the default allocator.
	Tracer *telemetry.Tracer
	// Journal records one JSONL epoch per decision batch (nil disables).
	Journal *telemetry.Journal
	// Metrics receives the adaptation-loop instruments (nil disables).
	Metrics *telemetry.Metrics
	// Energy accumulates per-session and fleet joules from Measure samples
	// (nil disables energy accounting). The embedding layer owns the ledger
	// and its clock: harp.Server binds wall time since startup, harpsim binds
	// the machine's virtual clock.
	Energy *telemetry.EnergyLedger
	// LatencyClock, when set, times each allocation for the
	// harp_allocation_seconds histogram. Servers inject wall time since
	// startup; simulated runs leave it nil (the histogram would measure
	// host speed, not simulated behaviour).
	LatencyClock func() time.Duration
	// Store receives one durable record per mutating operation (nil
	// disables persistence). Assign a *store.Store only when non-nil — a
	// typed-nil interface would defeat the Manager's nil check.
	Store StateSink
	// MaxSessions caps concurrent registrations (0 = unlimited). Attempts
	// beyond the cap fail with ErrTooManySessions.
	MaxSessions int
	// AllocCacheSize sizes the default allocator's fingerprinted solution
	// cache: 0 selects alloc.DefaultCacheSize, negative disables caching.
	// Ignored when Allocator is set — a custom allocator manages its own
	// caching. The cache is content-addressed, so it is decision-transparent:
	// register/deregister/phase-change/table mutations change the fingerprint
	// and miss naturally (see PERFORMANCE.md).
	AllocCacheSize int
	// AllocWarmStart seeds the default allocator's subgradient iteration
	// from the previous epoch's λ vector. Warm-started solves converge in
	// fewer iterations but are not guaranteed bit-identical to cold solves,
	// so this is opt-in. Ignored when Allocator is set.
	AllocWarmStart bool
	// Coalesce batches the epochs mutating operations trigger: instead of one
	// solve per Register/Deregister/UploadTable/PhaseChange, a pending epoch
	// is enqueued and flushed by the adaptation tick (Manager.Tick) or at the
	// dirty-event bound. The zero value preserves solve-per-event behaviour.
	// See coalesce.go.
	Coalesce CoalescePolicy
	// ShardedAlloc replaces the default allocator with an alloc.Sharded that
	// partitions sessions into kind-footprint domains and solves them in
	// parallel. Ignored when Allocator is set. The sharded allocator does not
	// support the deadline probe or cache export (those hooks assume a single
	// solver), so EpochBudget's early-cutoff rung and snapshot cache seeding
	// are inactive with it.
	ShardedAlloc bool
	// ShardParallelism bounds the sharded allocator's worker count
	// (<= 0 = one per CPU). Ignored unless ShardedAlloc.
	ShardParallelism int
	// AllocIncremental enables the default allocator's incremental re-solve
	// path: unchanged sessions stay pinned at their standing allocations and
	// only the changed set re-optimises against the residual capacity.
	// Opt-in for the same reason as AllocWarmStart — results are not
	// guaranteed bit-identical to cold solves. Ignored when Allocator is set.
	AllocIncremental bool
	// EpochBudget is the per-solve deadline for the degradation ladder:
	// the default allocator's subgradient loop cuts off early when the
	// budget is exceeded, and a solve that cannot produce a result at all
	// falls to the cheaper rungs (greedy fallback, last-known-good,
	// frozen). Wall-clock enforcement requires LatencyClock; 0 selects
	// DefaultEpochBudget, negative disables the deadline (the error, stall
	// and panic rungs stay active). With a custom Allocator the greedy
	// fallback rung is unavailable and solver errors keep their fail-fast
	// semantics — the indirection exists so tests can observe error epochs.
	EpochBudget time.Duration
}

type session struct {
	instance   string
	app        string
	adaptivity workload.Adaptivity
	ownUtility bool

	explorer *explore.Explorer

	// Current decision state.
	last *Decision

	// Exploration state for the current epoch: the concrete core pool the
	// session may roam in, and its per-kind size (the exploration bound).
	pool  map[platform.KindID][]int
	bound []int

	stableMeasurements int
	coAllocated        bool
	phase              string
	liveness           Liveness

	// Epoch-pipeline bookkeeping (epoch.go). slot is the session's index in
	// Manager.order; inputIdx its position in the solve input set, valid
	// while the set is not stale (-1 while quarantined). dirty marks a
	// session listed in Manager.dirty: the next push walk must visit it even
	// if the solver reports its allocation unchanged. gone marks a
	// deregistered session that a work list may still reference.
	slot     int
	inputIdx int
	dirty    bool
	gone     bool

	// Telemetry state: the last smoothed sample, and the session's gauges
	// cached at registration so the 50 ms hot path skips the GaugeVec map.
	lastUtility float64
	lastPower   float64
	utilGauge   *telemetry.Gauge
	powerGauge  *telemetry.Gauge
}

// Manager is the HARP resource manager.
type Manager struct {
	cfg       Config
	allocator Allocator
	sessions  map[string]*session
	explorers map[string]*explore.Explorer // per application name; persists across sessions
	// order preserves registration order for deterministic solves. Removal
	// tombstones the slot (nil entries, skipped by every iterator) and
	// compacts when half the slice is dead, so a deregistration storm is
	// amortised O(1) per event instead of the old O(N) scan. A session knows
	// its slot; orderDead counts tombstones.
	order     []*session
	orderDead int
	seq       int
	onDecide  []func(Decision)

	// The epoch pipeline's standing state (epoch.go): the solve input set in
	// solve order with the session behind each position, the sessions the
	// next push walk must visit whatever the solver's delta says, and whether
	// that delta may be trusted at all.
	inputs      []alloc.AppInput
	inputSess   []*session
	inputsStale bool
	dirty       []*session
	deltaOK     bool
	visit       []*session // push-walk scratch
	usedCores   []bool     // exploration-pool scratch

	// Aggregates over the standing decisions, maintained where a decision
	// changes (setStanding) and where liveness changes, so neither the epoch
	// path nor a gauge ever rescans the sessions: the summed predicted power
	// (the epoch's power budget), how many sessions hold each physical core in
	// isolation and how many distinct cores that is, and the live-session
	// count.
	standingPowerW float64
	coreHolders    []int32
	coresGranted   int
	liveSessions   int

	// Coalescing state (coalesce.go): one pending epoch batching the
	// mutating events since the last solve.
	pendingEpoch   bool
	pendingTrigger string
	pendingEvents  int
	// ended remembers the instances that deregistered most recently, so a
	// re-registration of the same instance can be counted as a session
	// resumption. Bounded: see recentSet.
	ended *recentSet
	// priorPhase remembers the last announced phase of sessions recovered
	// from durable state (ImportState), restored when the client reconnects.
	priorPhase map[string]string

	// pendingOut accumulates the decisions pushed since the last journal
	// epoch (only when a journal is configured), so an epoch's Outputs are
	// exactly the EvDecisionPushed events it covers.
	pendingOut []telemetry.EpochOutput

	// lastSolveSource remembers where the most recent solve's solution came
	// from (an alloc.Source* value: cold, warm, cached, incremental, sharded
	// or a degradation-ladder rung) for status surfaces; empty before the
	// first solve.
	lastSolveSource string

	// Flight-recorder phase histograms, resolved once at construction so the
	// epoch path never touches the HistogramVec map (nil without metrics —
	// the span API is nil-safe).
	epochHist    *telemetry.Histogram
	snapshotHist *telemetry.Histogram
	pushHist     *telemetry.Histogram
	journalHist  *telemetry.Histogram

	// Degradation-ladder state (see solveWithLadder). fallback is the
	// greedy rung-2 solver, built only alongside the default allocator;
	// haveGood records that some solve has produced allocations, i.e. that
	// the standing decisions are a last-known-good worth holding (rung 3);
	// forceDegraded counts pending injected solver stalls; lastEpochErr is
	// the sticky message of the last failed or degraded epoch; lastRung is
	// the rung that resolved the most recent epoch ("" = healthy); the
	// deadline pair arms the allocator's over-budget probe per solve.
	fallback      Allocator
	haveGood      bool
	forceDegraded int
	lastEpochErr  string
	lastRung      string
	deadlineAt    time.Duration
	deadlineArmed bool
}

// NewManager creates a resource manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Platform == nil {
		return nil, errors.New("core: config without platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Platform.SimultaneousPMU && !cfg.DisableExploration {
		return nil, fmt.Errorf(
			"core: platform %s cannot monitor all core kinds simultaneously; online exploration must be disabled (§6.4)",
			cfg.Platform.Name)
	}
	allocator := cfg.Allocator
	var fallback Allocator
	if allocator == nil {
		cacheSize := cfg.AllocCacheSize
		if cacheSize == 0 {
			cacheSize = alloc.DefaultCacheSize
		}
		var err error
		if cfg.ShardedAlloc {
			// Children share the metrics bundle (its instruments are atomic)
			// but not the tracer: parallel children would interleave ring
			// events nondeterministically.
			allocator, err = alloc.NewSharded(cfg.Platform, cfg.ShardParallelism, 0,
				alloc.WithMetrics(cfg.Metrics),
				alloc.WithCache(cacheSize),
				alloc.WithWarmStart(cfg.AllocWarmStart),
				alloc.WithIncremental(cfg.AllocIncremental),
			)
		} else {
			allocator, err = alloc.New(cfg.Platform,
				alloc.WithTracer(cfg.Tracer),
				alloc.WithMetrics(cfg.Metrics),
				alloc.WithCache(cacheSize),
				alloc.WithWarmStart(cfg.AllocWarmStart),
				alloc.WithIncremental(cfg.AllocIncremental),
			)
		}
		if err != nil {
			return nil, err
		}
		// The rung-2 fallback: a bare greedy solver with no cache or warm
		// state, so a degraded epoch never perturbs the primary solver's
		// memo and unfaulted runs stay byte-identical.
		fallback, err = alloc.New(cfg.Platform, alloc.WithMethod(alloc.Greedy))
		if err != nil {
			return nil, err
		}
	}
	if cfg.Explore.Tracer == nil {
		cfg.Explore.Tracer = cfg.Tracer
	}
	if cfg.ReallocEvery == 0 {
		cfg.ReallocEvery = DefaultReallocEvery
	}
	if cfg.ReallocEvery < 1 {
		return nil, fmt.Errorf("core: realloc cadence %d", cfg.ReallocEvery)
	}
	if cfg.EpochBudget == 0 {
		cfg.EpochBudget = DefaultEpochBudget
	}
	m := &Manager{
		cfg:         cfg,
		allocator:   allocator,
		fallback:    fallback,
		sessions:    make(map[string]*session),
		explorers:   make(map[string]*explore.Explorer),
		ended:       newRecentSet(recentDepartures),
		priorPhase:  make(map[string]string),
		coreHolders: make([]int32, cfg.Platform.NumCores()),
		usedCores:   make([]bool, cfg.Platform.NumCores()),
	}
	if cfg.LatencyClock != nil && cfg.EpochBudget > 0 {
		if da, ok := allocator.(interface{ SetOverBudget(func() bool) }); ok {
			da.SetOverBudget(func() bool {
				return m.deadlineArmed && m.cfg.LatencyClock() > m.deadlineAt
			})
		}
	}
	if mt := cfg.Metrics; mt != nil {
		m.epochHist = mt.EpochPhase.With(telemetry.PhaseEpoch)
		m.snapshotHist = mt.EpochPhase.With(telemetry.PhaseSnapshot)
		m.pushHist = mt.EpochPhase.With(telemetry.PhasePush)
		m.journalHist = mt.EpochPhase.With(telemetry.PhaseJournal)
		cfg.Energy.BindMetrics(mt.SessionEnergy, mt.EnergyTotal, mt.BudgetOverrunSeconds)
	}
	return m, nil
}

// explorerFor returns the application's persistent explorer, creating and
// seeding it on first use. Operating-point tables outlive individual
// sessions: profiles are refined across repeated executions (§4.3,
// "self-improving resource management").
func (m *Manager) explorerFor(app string) *explore.Explorer {
	if e, ok := m.explorers[app]; ok {
		return e
	}
	e := explore.New(m.cfg.Platform, app, m.cfg.Explore)
	if tbl, ok := m.cfg.OfflineTables[app]; ok {
		e.SeedTable(tbl)
	}
	m.explorers[app] = e
	return e
}

// OnDecision registers a callback invoked for every pushed decision.
func (m *Manager) OnDecision(fn func(Decision)) {
	m.onDecide = append(m.onDecide, fn)
}

// Register adds an application session and triggers a reallocation
// (§4.1.1 step 1). If an offline table for the application exists it seeds
// the session — with exploration disabled, that is the only knowledge source.
func (m *Manager) Register(instance, app string, adaptivity workload.Adaptivity, ownUtility bool) error {
	if instance == "" || app == "" {
		return errors.New("core: registration with empty instance or app name")
	}
	if _, ok := m.sessions[instance]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateSession, instance)
	}
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return m.rejectRegistration(instance, app, "max-sessions")
	}
	s := &session{
		instance:   instance,
		app:        app,
		adaptivity: adaptivity,
		ownUtility: ownUtility,
		explorer:   m.explorerFor(app),
		inputIdx:   -1,
	}
	// Stash the restart-continuity state the registration consumes so a
	// failed solve can restore it: without the stash, a failed registration
	// followed by a successful retry loses the resumed phase and the
	// reconnect count.
	priorPhase, hadPrior := m.priorPhase[instance]
	wasEnded := m.ended.has(instance)
	if hadPrior {
		// The instance existed before an RM restart; resume its announced
		// phase so the journal and status views stay continuous.
		s.phase = priorPhase
		delete(m.priorPhase, instance)
	}
	m.sessions[instance] = s
	m.orderAdd(s)
	m.markDirty(s) // no standing decision yet: the next walk must reach it
	m.inputsStale = true
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvSessionRegistered,
		Instance: instance,
		App:      app,
		Stage:    s.explorer.Stage().String(),
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Sessions.Set(float64(len(m.sessions)))
		s.utilGauge = mt.SessionUtility.With(instance)
		s.powerGauge = mt.SessionPower.With(instance)
	}
	m.ended.remove(instance)
	m.liveChanged(+1)
	rerr := m.epochAfter("register")
	if rerr != nil && !m.cfg.Coalesce.Enabled {
		// Roll the half-registered session back out: the caller reports the
		// failure to the client, and a ghost session would keep joining
		// future solves with nobody listening for its decisions. The journal
		// has already recorded the error epoch. (With coalescing the session
		// stays — a flush failure covers many sessions, and evicting the one
		// that tripped the dirty bound would be arbitrary; see coalesce.go.)
		m.forget(s)
		if mt := m.cfg.Metrics; mt != nil {
			mt.Sessions.Set(float64(len(m.sessions)))
			// Release the per-instance label series cached on the session
			// above — without this every rejected registration leaks a gauge
			// pair and metric cardinality grows forever.
			mt.SessionUtility.Delete(instance)
			mt.SessionPower.Delete(instance)
		}
		// Restore the consumed continuity state for the retry.
		if hadPrior {
			m.priorPhase[instance] = priorPhase
		}
		if wasEnded {
			m.ended.add(instance)
		}
		return rerr
	}
	// Counted only once the registration sticks — a rolled-back attempt is
	// not a resumption.
	if mt := m.cfg.Metrics; mt != nil && wasEnded {
		mt.Reconnects.Inc()
	}
	m.appendRecord(store.Record{
		Kind:       store.RecRegister,
		Instance:   instance,
		App:        app,
		Adaptivity: adaptivity.String(),
		OwnUtility: s.ownUtility,
		Phase:      s.phase,
	})
	return rerr
}

// orderAdd appends a session to the deterministic solve order.
func (m *Manager) orderAdd(s *session) {
	s.slot = len(m.order)
	m.order = append(m.order, s)
}

// orderRemove tombstones the session's slot in O(1) and compacts the slice
// once half of it is dead, keeping removal amortised O(1) per event.
func (m *Manager) orderRemove(s *session) {
	m.order[s.slot] = nil
	m.orderDead++
	if m.orderDead*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, o := range m.order {
		if o == nil {
			continue
		}
		o.slot = len(live)
		live = append(live, o)
	}
	clear(m.order[len(live):]) // drop the tail's references
	m.order = live
	m.orderDead = 0
}

// forget removes a session from the registry, the solve order and every
// aggregate it contributed to — the part of a departure (or of a rolled-back
// registration) that is bookkeeping rather than protocol.
func (m *Manager) forget(s *session) {
	delete(m.sessions, s.instance)
	m.orderRemove(s)
	m.setStanding(s, nil)
	if s.liveness == LivenessLive {
		m.liveChanged(-1)
	}
	s.gone = true
	m.inputsStale = true
	if len(m.sessions) == 0 {
		m.standingPowerW = 0 // no rounding residue outlives the last session
	}
}

// UploadTable merges operating points supplied by the application itself
// (description file shipped with the app, §4.1.1 step 2) and reallocates.
func (m *Manager) UploadTable(instance string, t *opoint.Table) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	if t == nil {
		return errors.New("core: nil table upload")
	}
	if err := t.Validate(m.cfg.Platform); err != nil {
		return err
	}
	s.explorer.SeedTable(t)
	m.inputsStale = true // every session of the application solves against a new table
	rerr := m.epochAfter("table-upload")
	m.appendRecord(store.Record{Kind: store.RecTable, Instance: instance, App: s.app, Table: t})
	return rerr
}

// Deregister removes a session (application exit) and reallocates.
func (m *Manager) Deregister(instance string) error {
	return m.deregister(instance, "deregister", telemetry.EvSessionExited)
}

// Reap removes a session the liveness reaper declared dead: the same cleanup
// as Deregister, but journaled and traced as a reap so decision streams
// distinguish voluntary exits from reclaimed sessions.
func (m *Manager) Reap(instance string) error {
	if mt := m.cfg.Metrics; mt != nil {
		if _, ok := m.sessions[instance]; ok {
			mt.SessionsReaped.Inc()
		}
	}
	return m.deregister(instance, "reap", telemetry.EvSessionReaped)
}

func (m *Manager) deregister(instance, trigger string, kind telemetry.EventKind) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	m.forget(s)
	m.ended.add(instance)
	m.cfg.Energy.EndSession(instance)
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     kind,
		Instance: instance,
		App:      s.app,
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Sessions.Set(float64(len(m.sessions)))
		mt.SessionUtility.Delete(instance)
		mt.SessionPower.Delete(instance)
	}
	if len(m.sessions) == 0 {
		if mt := m.cfg.Metrics; mt != nil {
			mt.CoresGranted.Set(0)
		}
		m.appendRecord(store.Record{Kind: store.RecDeregister, Instance: instance, App: s.app})
		return nil
	}
	rerr := m.epochAfter(trigger)
	m.appendRecord(store.Record{Kind: store.RecDeregister, Instance: instance, App: s.app})
	return rerr
}

// SetLiveness transitions a session's health state (driven by the embedding
// layer's deadlines). Entering quarantine freezes learning and reallocates so
// the session's cores shrink to zero; leaving quarantine reallocates to
// restore them. Suspect transitions are recorded but keep the allocation.
// The reason labels the trace event (e.g. "silent", "write-failed").
func (m *Manager) SetLiveness(instance string, l Liveness, reason string) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	if s.liveness == l {
		return nil
	}
	old := s.liveness
	m.setLiveness(s, l)
	var kind telemetry.EventKind
	switch {
	case l == LivenessQuarantined:
		kind = telemetry.EvSessionQuarantined
	case l == LivenessSuspect:
		kind = telemetry.EvSessionSuspect
	default:
		kind = telemetry.EvSessionReadmitted
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     kind,
		Instance: instance,
		App:      s.app,
		Stage:    reason,
	})
	if mt := m.cfg.Metrics; mt != nil {
		switch kind {
		case telemetry.EvSessionQuarantined:
			mt.SessionsQuarantined.Inc()
		case telemetry.EvSessionReadmitted:
			mt.SessionsReadmitted.Inc()
		}
	}
	switch {
	case l == LivenessQuarantined:
		// Freeze learning: an in-flight exploration measurement would mix
		// pre- and post-silence behaviour, and the stable cadence restarts
		// when the session resumes.
		s.explorer.Abort()
		s.stableMeasurements = 0
		return m.epochAfter("quarantine")
	case old == LivenessQuarantined:
		return m.epochAfter("readmit")
	}
	return nil
}

// Liveness returns a session's health state.
func (m *Manager) Liveness(instance string) (Liveness, error) {
	s, err := m.session(instance)
	if err != nil {
		return 0, err
	}
	return s.liveness, nil
}

// setLiveness moves a session between health states and keeps what hangs
// off the state current: the live-session gauge, and — when the session
// enters or leaves quarantine — the solve input set (quarantined sessions are
// not solved for) and the next push walk, which must park or restore it.
func (m *Manager) setLiveness(s *session, l Liveness) {
	old := s.liveness
	s.liveness = l
	switch {
	case old == LivenessLive:
		m.liveChanged(-1)
	case l == LivenessLive:
		m.liveChanged(+1)
	}
	if (old == LivenessQuarantined) != (l == LivenessQuarantined) {
		m.inputsStale = true
		m.markDirty(s)
	}
}

// liveChanged adjusts the live-session count and its gauge.
func (m *Manager) liveChanged(delta int) {
	m.liveSessions += delta
	if mt := m.cfg.Metrics; mt != nil {
		mt.SessionsLive.Set(float64(m.liveSessions))
	}
}

// Measure feeds one smoothed (utility, power) sample for a session
// (§4.1.1 step 4; the embedding layer samples at 50 ms). Exploring sessions
// fold it into the configuration under measurement; stable sessions count it
// toward the periodic reallocation cadence.
func (m *Manager) Measure(instance string, utility, power float64) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	s.lastUtility = utility
	s.lastPower = power
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvMeasureSample,
		Instance: instance,
		App:      s.app,
		Utility:  utility,
		Power:    power,
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Samples.Inc()
		s.utilGauge.Set(utility)
		s.powerGauge.Set(power)
	}
	// Energy accrues for every sample — quarantined and co-allocated
	// sessions still draw the watts they report, even while learning from
	// those samples is suspended.
	m.cfg.Energy.Observe(instance, utility, power)
	if s.liveness == LivenessQuarantined {
		// Learning is frozen in quarantine: the session's cores were
		// reclaimed, so samples describe a zero-resource configuration and
		// would corrupt the operating-point table. The embedding layer
		// readmits the session (SetLiveness) when its reports resume.
		return nil
	}
	if s.coAllocated {
		// Co-allocation distorts measurements; monitoring is suspended
		// (§4.2.2, Limitations).
		return nil
	}
	if m.exploring(s) {
		cur, measuring := s.explorer.Current()
		if !measuring {
			// Not currently measuring (e.g. just seeded); start a point.
			if err := m.startExploration(s); err != nil {
				return m.reallocate("exploration")
			}
			return m.flushMeasureEpoch()
		}
		done, err := s.explorer.Record(utility, power)
		if err != nil {
			return err
		}
		if !done {
			return nil
		}
		m.inputsStale = true // the committed point changes the application's table
		var rerr error
		switch {
		case s.explorer.Stage() == explore.StageStable:
			// Graduation: pick the cost-optimal allocation system-wide.
			rerr = m.reallocate("graduation")
		default:
			if err := m.startExploration(s); err != nil {
				rerr = m.reallocate("exploration")
			} else {
				rerr = m.flushMeasureEpoch()
			}
		}
		// Persist the committed point (after the reallocation, so the
		// record's Seq covers any decisions the commit triggered).
		if op, ok := s.explorer.Table().Lookup(cur); ok {
			m.appendRecord(store.Record{
				Kind:  store.RecPoint,
				App:   s.app,
				Point: &op,
				Stage: s.explorer.Stage().String(),
			})
		}
		return rerr
	}

	s.stableMeasurements++
	if s.stableMeasurements >= m.cfg.ReallocEvery {
		s.stableMeasurements = 0
		return m.reallocate("cadence")
	}
	return nil
}

// flushMeasureEpoch journals decisions pushed directly from Measure
// (exploration steps bypass reallocate); a no-op when nothing was pushed.
func (m *Manager) flushMeasureEpoch() error {
	if len(m.pendingOut) > 0 {
		m.recordEpoch("exploration", 0, "")
	}
	return nil
}

// PhaseChange handles an application's announcement that it entered a new
// execution stage with different performance-energy characteristics — the
// interface extension from the paper's outlook (§7). The session's current
// exploration measurement is discarded (it straddles two phases), the
// stable-stage cadence restarts, and the allocation is reassessed so the new
// phase's behaviour drives fresh measurements.
func (m *Manager) PhaseChange(instance, phase string) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	s.phase = phase
	s.stableMeasurements = 0
	if _, measuring := s.explorer.Current(); measuring {
		s.explorer.Abort()
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvPhaseChange,
		Instance: instance,
		App:      s.app,
		Stage:    phase,
	})
	rerr := m.epochAfter("phase-change")
	m.appendRecord(store.Record{Kind: store.RecPhase, Instance: instance, App: s.app, Phase: phase})
	return rerr
}

// session looks up a registered session.
func (m *Manager) session(instance string) (*session, error) {
	s, ok := m.sessions[instance]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, instance)
	}
	return s, nil
}

// Stage returns a session's exploration maturity.
func (m *Manager) Stage(instance string) (explore.Stage, error) {
	s, err := m.session(instance)
	if err != nil {
		return 0, err
	}
	if m.cfg.DisableExploration {
		return explore.StageStable, nil
	}
	return s.explorer.Stage(), nil
}

// AllStable reports whether every session has reached the stable stage
// (Fig. 8's background shading).
func (m *Manager) AllStable() bool {
	for _, s := range m.sessions {
		if m.exploring(s) {
			return false
		}
	}
	return true
}

// Sessions returns summaries of all registered sessions in registration
// order.
func (m *Manager) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, s := range m.order {
		if s == nil {
			continue // tombstoned order slot (orderRemove)
		}
		stage := s.explorer.Stage()
		if m.cfg.DisableExploration {
			stage = explore.StageStable
		}
		info := SessionInfo{
			Instance:         s.instance,
			App:              s.app,
			Adaptivity:       s.adaptivity,
			OwnUtility:       s.ownUtility,
			Stage:            stage,
			CoAllocated:      s.coAllocated,
			Measured:         s.explorer.Table().MeasuredCount(),
			Phase:            s.phase,
			Liveness:         s.liveness,
			LastReportAgeSec: -1, // embedders tracking liveness overlay the real age
			Utility:          s.lastUtility,
			Power:            s.lastPower,
		}
		if s.last != nil {
			info.Vector = s.last.Vector.Key()
			info.Threads = s.last.Threads
			info.Cores = len(s.last.Grants)
			info.Seq = s.last.Seq
			info.Exploring = s.last.Exploring
		}
		out = append(out, info)
	}
	return out
}

// StandingPowerW is the summed predicted power of every session's standing
// decision — the same quantity the epoch recorder reports as the budget
// numerator, kept current as decisions change (setStanding). The fleet
// coordinator reads it per machine to grade actual load against the
// distributed per-machine power cap.
func (m *Manager) StandingPowerW() float64 { return m.standingPowerW }

// Table returns a snapshot of a session's learned operating points —
// harpctl uses this, and Fig. 8 snapshots it every 5 s.
func (m *Manager) Table(instance string) (*opoint.Table, error) {
	s, err := m.session(instance)
	if err != nil {
		return nil, err
	}
	return s.explorer.Table().Clone(), nil
}

// LearnedTables returns a deep copy of every application's operating-point
// table, keyed by application name — what /etc/harp accumulates over time
// and what Fig. 8 snapshots during the learning phase.
func (m *Manager) LearnedTables() map[string]*opoint.Table {
	out := make(map[string]*opoint.Table, len(m.explorers))
	for app, e := range m.explorers {
		out[app] = e.Table().Clone()
	}
	return out
}

// OwnUtility reports whether the session supplies its own utility metric.
func (m *Manager) OwnUtility(instance string) (bool, error) {
	s, err := m.session(instance)
	if err != nil {
		return false, err
	}
	return s.ownUtility, nil
}
