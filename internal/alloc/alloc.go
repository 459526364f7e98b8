// Package alloc implements HARP's energy-efficient resource allocation
// (§4.2.2): selecting one operating point per application to minimise the
// system-wide energy-utility cost (Eq. 1a) subject to the platform's
// per-kind core capacity (Eq. 1b). The problem is a Multiple-choice
// Multi-dimensional Knapsack (MMKP); the production solver uses Lagrangian
// relaxation with a greedy repair phase in the style of Wildermann et al.,
// and a plain greedy solver is provided as an ablation baseline. When demand
// exceeds capacity the allocator falls back to co-allocation (§4.2.2,
// Limitations), marking the affected applications so the resource manager
// can suspend their performance monitoring.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// Method selects the MMKP solver.
type Method int

// Method values.
const (
	// Lagrangian is the production solver (relaxation + repair).
	Lagrangian Method = iota + 1
	// Greedy picks min-cost feasible points in application order — the
	// ablation baseline.
	Greedy
)

// lagrangianIters bounds the subgradient iteration (it usually stops
// earlier, at the λ fixpoint).
const lagrangianIters = 60

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Lagrangian:
		return "lagrangian"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// AppInput describes one application competing for resources.
type AppInput struct {
	// ID identifies the application (its session name).
	ID string
	// Table is the application's operating points (measured + predicted).
	Table *opoint.Table
}

// CoreGrant assigns one physical core with a number of hardware threads.
type CoreGrant struct {
	// Core is the global physical core index.
	Core int
	// Threads is how many of the core's hardware threads the application
	// may use (1 ≤ Threads ≤ SMT).
	Threads int
}

// Allocation is the allocator's decision for one application.
type Allocation struct {
	// ID echoes the AppInput ID.
	ID string
	// Point is the selected operating point.
	Point opoint.OperatingPoint
	// Grants lists the concrete cores assigned (spatially isolated unless
	// CoAllocated).
	Grants []CoreGrant
	// CoAllocated marks applications sharing cores with others because
	// demand exceeded capacity; HARP suspends their monitoring (§5.1).
	CoAllocated bool
}

// Allocator solves the operating-point selection and core assignment.
//
// The Allocator is stateful — it owns a solution cache, the previous solve's
// λ vector for warm starts, the standing placement and a reusable solver
// scratch arena — and is not goroutine-safe; embedders (the Manager,
// benchmarks) serialise solves, as they already do for the Manager itself.
type Allocator struct {
	plat    *platform.Platform
	method  Method
	tracer  *telemetry.Tracer
	metrics *telemetry.Metrics

	// Solution cache (cache.go) and input fingerprinting (fingerprint.go).
	cacheSize int
	cache     *solutionCache
	fpBase    Fingerprint

	// Warm-start state (warmstart.go).
	warm       bool
	prevLambda []float64
	havePrev   bool

	// The standing placement (placement.go): the allocations the previous
	// successful solve returned, by input position. Placement keeps what it
	// can of them, and the incremental merge pins them. spare is the buffer
	// the next solve writes its result into; the two swap on every success.
	standing, spare []Allocation

	// Incremental re-solve state (incremental.go): per standing position the
	// table hash and costs a merge compares against, how many pins are
	// co-allocated, the merges since the last full solve, and the cost-slack
	// baseline the drift bound compares against.
	inc           bool
	incFullEvery  int
	incDriftBound float64
	pins          pinSet
	coAllocated   int // co-allocated pins
	incSinceFull  int
	incBaseSlack  float64
	incScratch    incScratch

	// overBudget, when set, is polled between subgradient iterations; a
	// true return cuts the λ loop off early (repair still makes the
	// partial selection feasible). See SetOverBudget.
	overBudget func() bool

	// fallback is the free candidate of an application with no usable
	// point (see buildState); its point is the allocator's own.
	fallback candidate

	// Flight-recorder phase histograms, resolved once in New so the hot path
	// never touches the HistogramVec map (nil when metrics are off — the
	// span API is nil-safe).
	fingerprintHist *telemetry.Histogram
	solveHist       *telemetry.Histogram
	repairHist      *telemetry.Histogram

	scratch solverScratch
}

// solverScratch is the per-Allocator arena reused across solves so the
// steady-state pipeline stays off the heap: capacity/λ/demand vectors, the
// per-app states with their candidate lists, the groups of the subgradient
// iteration, and the placement pass's work arrays. Nothing in here escapes
// into a returned Allocation: results live in the standing/spare pair, and
// grant lists are built fresh because the standing placement shares them
// onward.
type solverScratch struct {
	capacity   []int
	states     []*appState
	lambda     []float64
	lambdaPrev []float64
	demand     []int
	remaining  []int
	limit      []int
	stride     []int
	groups     []lagGroup
	seen       map[uint64]bool
	rescue     rescueSearch
	place      placeScratch
	// built maps each table of the current build sequence to the state that
	// built its candidate list (see buildState).
	built map[*opoint.Table]*appState
}

// ensureStates returns n reusable per-app states and starts a build
// sequence: the states buildState fills next share no list with any built
// before.
func (s *solverScratch) ensureStates(n int) []*appState {
	for len(s.states) < n {
		s.states = append(s.states, new(appState))
	}
	clear(s.built)
	return s.states[:n]
}

// resize returns buf with length n, keeping its first min(n, len(buf))
// elements and zeroing any it drops. It reallocates only when it must, with
// append's headroom, so a retained per-application buffer under arrivals
// grows now and then rather than on every solve.
func resize[T any](buf []T, n int) []T {
	if n > cap(buf) {
		return append(buf, make([]T, n-len(buf))...)
	}
	if n < len(buf) {
		clear(buf[n:])
	}
	return buf[:n]
}

// Option configures an Allocator.
type Option interface{ apply(*Allocator) }

type optionFunc func(*Allocator)

func (f optionFunc) apply(a *Allocator) { f(a) }

// WithMethod selects the solver (default Lagrangian).
func WithMethod(m Method) Option {
	return optionFunc(func(a *Allocator) { a.method = m })
}

// WithTracer emits an EvAllocationComputed event per solver run (nil
// disables tracing).
func WithTracer(t *telemetry.Tracer) Option {
	return optionFunc(func(a *Allocator) { a.tracer = t })
}

// WithCache enables the content-addressed solution cache with capacity n
// (entries); n <= 0 disables caching, which is the default. DefaultCacheSize
// is a sensible capacity for production managers. The cache memoises each
// full solve's selection — the point and co-allocation flag per position —
// and a hit places it against the standing placement, like any solve.
func WithCache(n int) Option {
	return optionFunc(func(a *Allocator) { a.cacheSize = n })
}

// WithMetrics wires the allocator's cache counters and warm-start iteration
// histogram (nil disables; the instruments are nil-safe but the bundle
// pointer is checked here).
func WithMetrics(m *telemetry.Metrics) Option {
	return optionFunc(func(a *Allocator) { a.metrics = m })
}

// SetOverBudget installs the deadline probe for the degradation ladder's
// rung 1: between subgradient iterations the solver polls check and stops
// early when it returns true, keeping the current selection (repair makes
// it feasible, so the result is valid — just less converged). At least one
// iteration always runs. A nil check removes the probe.
func (a *Allocator) SetOverBudget(check func() bool) { a.overBudget = check }

// New creates an allocator for the platform.
func New(plat *platform.Platform, opts ...Option) (*Allocator, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{plat: plat, method: Lagrangian,
		incFullEvery: DefaultIncrementalFullEvery, incDriftBound: DefaultIncrementalDriftBound}
	a.scratch.built = make(map[*opoint.Table]*appState)
	a.incScratch.ids = make(map[string]int32)
	for _, o := range opts {
		o.apply(a)
	}
	if a.method != Lagrangian && a.method != Greedy {
		return nil, fmt.Errorf("alloc: bad method %d", a.method)
	}
	if a.cacheSize > 0 {
		a.cache = newSolutionCache(a.cacheSize)
	}
	if a.inc {
		// Never nil: a nil Stats.Changed reads as "everything moved", and a
		// nil placement list as "place every position".
		a.incScratch.changed = make([]int, 0, 16)
		a.incScratch.resolveIdx = make([]int, 0, 16)
	}
	a.fpBase = a.fingerprintBase()
	rv := platform.NewResourceVector(plat)
	rv.Counts[len(plat.Kinds)-1][0] = 1
	a.fallback = candidate{op: &opoint.OperatingPoint{Vector: rv}, demand: rv.CoreDemand()}
	if a.metrics != nil {
		a.fingerprintHist = a.metrics.EpochPhase.With(telemetry.PhaseFingerprint)
		a.solveHist = a.metrics.EpochPhase.With(telemetry.PhaseSolve)
		a.repairHist = a.metrics.EpochPhase.With(telemetry.PhaseRepair)
	}
	return a, nil
}

// NewSharded returns New(plat, opts...); the worker count and power cap are
// ignored.
//
// Deprecated: the sharded solver is gone. This shim remains only for callers
// that still pass its positional arguments.
func NewSharded(plat *platform.Platform, _ int, _ float64, opts ...Option) (*Allocator, error) {
	return New(plat, opts...)
}

// candidate is an operating point with its precomputed cost and demand. op
// points into a table's memoised front (opoint.Table.ParetoPoints), or at
// the allocator's fallback point; both are read-only.
type candidate struct {
	op     *opoint.OperatingPoint
	cost   float64
	demand []int
}

// appState is the per-application solver view. States live in the solver
// scratch; a solve resets their choices, and a state's own list outlives the
// solve for as long as its table does (buildState).
type appState struct {
	id string
	// cands is the candidate list, read-only. owner built it into its own
	// candBuf, carving the demand slices from its demandBuf; owner is the
	// state itself or the first state of the build sequence with the same
	// table (buildState). A state that aliases another's list never writes
	// its buffers.
	cands  []candidate
	owner  *appState
	group  int32 // an owner's λ group (groupStates)
	chosen int   // index into cands, -1 = none
	// coalloc records that repair found no candidate fitting the remaining
	// capacity and deferred the application to co-allocation; placement
	// shares cores for exactly these states. Running out of cores for any
	// other state is an internal accounting bug surfaced as *CapacityError.
	coalloc bool
	// grid is improve's first-fit lookup over cands (see buildFit), carved
	// from gridBuf and rebuilt per improve call; nil when the state has none.
	grid []int32

	// The owner's side, read once per list rather than once per state, and
	// kept after the fields every state reads.
	candBuf   []candidate
	demandBuf []int
	// facts are the table facts candBuf was built from, nil before the first
	// build: the same pointer again means the same list.
	facts *opoint.Facts
	// reps are the λ representatives of candBuf (buildReps), with their
	// demands carved from fdBuf; empty until built for the current list.
	reps    []lagRep
	fdBuf   []float64
	gridBuf []int32
}

// Solve sources reported in Stats.Source and journaled per epoch.
const (
	// SourceCold is a full solve from a zero λ vector.
	SourceCold = "cold"
	// SourceWarm is a full solve seeded with the previous epoch's λ.
	SourceWarm = "warm"
	// SourceCached is a solution served from the fingerprint cache.
	SourceCached = "cached"
	// SourceIncremental is a merge of pinned standing allocations with a
	// re-solve of the changed applications against the residual capacity
	// (see incremental.go).
	SourceIncremental = "incremental"

	// The remaining sources are degradation-ladder rungs, produced by
	// core.Manager (not this package's solver) when the primary solve
	// fails or exceeds its deadline budget; they are declared here so the
	// journal vocabulary for SolveSource lives in one place.

	// SourceDegradedGreedy is a greedy fallback solve after the primary
	// solve failed (ladder rung 2).
	SourceDegradedGreedy = "degraded-greedy"
	// SourceDegradedStale is the last-known-good allocation replayed
	// (ladder rung 3).
	SourceDegradedStale = "degraded-stale"
	// SourceFrozen is an epoch that pushed nothing because no usable
	// allocation existed (ladder rung 4).
	SourceFrozen = "frozen"
)

// Stats summarises one solver run for the telemetry layer.
type Stats struct {
	// Apps is the number of competing applications.
	Apps int
	// Candidates is the total Pareto-filtered candidate count across apps.
	Candidates int
	// LambdaIters is the number of subgradient iterations actually performed
	// before the λ fixpoint was reached (0 for the greedy solver and for
	// cache hits) — the iterations-to-convergence measure warm starts are
	// judged by.
	LambdaIters int
	// CoAllocated counts applications that ended up sharing cores.
	CoAllocated int
	// Source tells where the solution came from: SourceCold, SourceWarm,
	// SourceCached or SourceIncremental.
	Source string
	// Changed is the solve's delta: the input positions, ascending, whose
	// allocation may differ from the one the previous successful solve
	// returned for the same application ID. Applications that solve did not
	// contain are always listed; departed ones have no position and are not.
	// It is a superset of the true difference — a listed position may turn
	// out identical — and never misses one. nil means "assume every position
	// moved": cold, warm and cached solves report nil, as does any
	// solver that does not track deltas. An empty non-nil slice means nothing
	// moved. Owned by the allocator like the allocations themselves:
	// read-only, valid until its next solve.
	Changed []int
}

// Allocate selects one operating point per application and assigns concrete
// cores. Every input application receives an allocation; applications that
// cannot fit are co-allocated on shared cores.
func (a *Allocator) Allocate(apps []AppInput) ([]Allocation, error) {
	out, _, err := a.AllocateWithStats(apps)
	return out, err
}

// AllocateWithStats is Allocate plus solver statistics, and emits an
// EvAllocationComputed event when the allocator has a tracer.
//
// Result ownership: the returned allocations, their grant lists and
// Stats.Changed belong to the allocator. They are read-only for the caller
// and valid until the allocator's next solve: every solve writes its result
// into a buffer the allocator reuses, which is what lets a cache hit cost
// zero heap allocations (Stats.Source = SourceCached). Grant lists are the
// exception in the caller's favour: once built they are never written
// again, and an application whose choice did not change keeps the very same
// list, so a caller may keep a []CoreGrant (the Manager's pushed decisions
// do) — but must copy anything else it wants to outlive the next solve.
//
// Order: with incremental solving on, the merge runs first; the cache is
// probed only when the merge declines, and a miss runs the full pipeline
// and memoises its selection. Every path places cores against the standing
// placement (placement.go). The merge's input is an Edit derived from IDs;
// an input no edit describes, such as a reorder, gets a full solve.
func (a *Allocator) AllocateWithStats(apps []AppInput) ([]Allocation, Stats, error) {
	return a.allocate(apps, nil)
}

// AllocateEdit is AllocateWithStats for a caller that recorded how apps
// differs from the input this allocator last solved (see Edit): the merge
// then visits what the edit names instead of comparing every ID and table
// with the standing placement, and an instance that left and returned may
// be a departure plus an arrival. An edit that does not describe the
// standing placement is ignored, and one is derived from IDs instead.
func (a *Allocator) AllocateEdit(apps []AppInput, ed *Edit) ([]Allocation, Stats, error) {
	return a.allocate(apps, ed)
}

// allocate is the one solve behind AllocateWithStats and AllocateEdit.
func (a *Allocator) allocate(apps []AppInput, ed *Edit) ([]Allocation, Stats, error) {
	var stats Stats
	if len(apps) == 0 {
		return nil, stats, nil
	}

	s := &a.scratch
	s.capacity = resize(s.capacity, len(a.plat.Kinds))
	capacity := s.capacity
	for k, kind := range a.plat.Kinds {
		capacity[k] = kind.Count
	}
	// Where each input stood in the previous solve: by the caller's edit
	// when it describes the standing placement, else by one derived from
	// IDs; an input no edit describes is aligned by ID and not merged.
	if !a.describes(apps, ed) {
		ed = a.deriveEdit(apps)
	}
	src := a.alignEdit(apps, ed)

	// Incremental path (incremental.go): when only a small changed set of
	// applications differs from the standing solution, re-solve just that
	// set against the residual capacity. Falls through to the cache and the
	// full pipeline when ineligible, on drift or on the full-solve cadence.
	if ed != nil && a.mergeable() {
		sp := a.tracer.BeginPhase(telemetry.PhaseSolve, a.solveHist)
		out, incStats, ok, err := a.tryIncremental(apps, src, ed)
		sp.End()
		if err != nil {
			return nil, stats, err
		}
		if ok {
			a.emitTrace(incStats)
			return out, incStats, nil
		}
	}

	// The cache memoises the full pipeline's selection, so it is probed only
	// in front of it: a merge the incremental path accepted never pays the
	// fingerprint.
	var fp Fingerprint
	fpOK := false
	if a.cache != nil {
		sp := a.tracer.BeginPhase(telemetry.PhaseFingerprint, a.fingerprintHist)
		fp, fpOK = a.fingerprintInputs(apps)
		if fpOK {
			if e := a.cache.get(fp); e != nil {
				sp.End()
				if a.metrics != nil {
					a.metrics.AllocCacheHits.Inc()
				}
				out := resize(a.spare, len(apps))
				copy(out, e.sel)
				if _, err := a.placeCores(out, nil, src, false); err != nil {
					return nil, stats, err
				}
				stats = e.stats
				stats.Source = SourceCached
				stats.LambdaIters = 0
				a.rememberFullSolve(apps, out, nil)
				a.emitTrace(stats)
				return out, stats, nil
			}
			if a.metrics != nil {
				a.metrics.AllocCacheMisses.Inc()
			}
		}
		sp.End()
	}

	solveSpan := a.tracer.BeginPhase(telemetry.PhaseSolve, a.solveHist)
	states := s.ensureStates(len(apps))
	for i, app := range apps {
		if app.Table == nil {
			solveSpan.End()
			return nil, stats, fmt.Errorf("alloc: app %q without operating-point table", app.ID)
		}
		if err := a.buildState(states[i], app); err != nil {
			solveSpan.End()
			return nil, stats, err
		}
		stats.Candidates += len(states[i].cands)
	}
	stats.Apps = len(apps)
	stats.Source = SourceCold

	warm := a.warmLambda(len(capacity))
	if warm != nil {
		stats.Source = SourceWarm
	}
	stats.LambdaIters = a.selectPoints(states, capacity, warm)
	if stats.Source == SourceWarm && a.metrics != nil {
		a.metrics.AllocWarmStartIters.Observe(float64(stats.LambdaIters))
	}
	solveSpan.End()

	repairSpan := a.tracer.BeginPhase(telemetry.PhaseRepair, a.repairHist)
	a.refine(states, capacity)
	out, err := a.assignCores(states, src)
	repairSpan.End()
	if err != nil {
		return nil, stats, err
	}
	for _, al := range out {
		if al.CoAllocated {
			stats.CoAllocated++
		}
	}
	if fpOK {
		evicted := a.cache.put(fp, out, stats)
		if a.metrics != nil && evicted > 0 {
			a.metrics.AllocCacheEvictions.Add(uint64(evicted))
		}
	}
	a.rememberFullSolve(apps, out, states)
	a.emitTrace(stats)
	return out, stats, nil
}

// selectPoints runs the solver's selection step — the subgradient iteration
// for Lagrangian, the "pick during repair" initialisation for greedy — and
// returns the λ iteration count (0 for greedy).
func (a *Allocator) selectPoints(states []*appState, capacity []int, warm []float64) int {
	switch a.method {
	case Lagrangian:
		return a.lagrangianSelect(states, capacity, warm)
	default:
		for i := range states {
			states[i].chosen = -1
		}
		return 0
	}
}

// refine makes the selection feasible and locally optimal: repair, then (for
// the production Lagrangian pipeline only) rescue, then the local-search
// improvement. rescue stays off the greedy ablation — it exists to show what
// order-sensitive repair costs, and rescuing it would erase exactly that
// difference.
func (a *Allocator) refine(states []*appState, capacity []int) {
	a.repair(states, capacity)
	if a.method == Lagrangian {
		a.rescue(states, capacity)
	}
	a.improve(states, capacity)
}

// emitTrace emits the per-solve EvAllocationComputed event when tracing is
// enabled. Cache hits emit too — the adaptation loop still decided an epoch —
// with the cached stats and zero λ iterations.
func (a *Allocator) emitTrace(stats Stats) {
	if !a.tracer.Enabled() {
		return
	}
	a.tracer.Emit(telemetry.Event{
		Kind: telemetry.EvAllocationComputed,
		Seq:  stats.Apps,
		Vals: [4]float64{
			float64(stats.LambdaIters),
			float64(stats.Candidates),
			float64(stats.CoAllocated),
		},
	})
}

// buildState gives st the solver view of app's table: one candidate per
// point of the table's usable Pareto front (opoint.Table.ParetoPoints, which
// says why unusable points go before the filter), with its cost and core
// demand, in the front's order, which is cost order — or the free fallback
// candidate when no point is usable.
//
// The view depends only on the table, and the Manager hands every session
// of one application the same table pointer, so a solve derives it once per
// table: the first state of the build sequence (ensureStates) built from a
// table validates it and builds the list into its own buffers, and every
// later state with the same pointer shares that list, read-only. A table is
// never written once handed out (opoint.Table), so the pointer stands for
// its content for the whole solve. Candidate demand vectors are carved from
// the owner's demand arena; neither buffer escapes into returned Allocations.
//
// The list depends only on the table's facts, so it also outlives the
// solve: an owner whose table comes back with the same facts pointer keeps
// its list, and its λ representatives, as they stand. Facts are a new
// pointer whenever the content may have changed (opoint.Table.Invalidate,
// a length change, a new table), and the state holds the pointer it built
// from, so that address is never reused for other facts. A state rebuilds,
// recycling its buffers, only when its table is replaced.
func (a *Allocator) buildState(st *appState, app AppInput) error {
	st.id = app.ID
	st.chosen = -1
	st.coalloc = false
	if owner := a.scratch.built[app.Table]; owner != nil {
		st.cands, st.owner = owner.cands, owner
		return nil
	}
	if err := app.Table.Validate(a.plat); err != nil {
		return err
	}
	a.scratch.built[app.Table] = st
	st.owner = st
	facts := app.Table.Facts()
	if st.facts == facts {
		st.cands = st.candBuf
		return nil
	}
	points := app.Table.ParetoPoints()
	cands := st.candBuf[:0]
	// Size the demand arena up front: carving then never reallocates, so the
	// candidates' demand slices stay valid.
	nk := len(a.plat.Kinds)
	st.demandBuf = slices.Grow(st.demandBuf[:0], len(points)*nk)
	buf := st.demandBuf
	for i := range points {
		op := &points[i]
		start := len(buf)
		for kind := range op.Vector.Counts {
			buf = append(buf, op.Vector.Cores(platform.KindID(kind)))
		}
		cands = append(cands, candidate{
			op:     op,
			cost:   op.Cost(facts.VStar),
			demand: buf[start:len(buf):len(buf)],
		})
	}
	st.demandBuf = buf
	if len(cands) == 0 {
		// No usable characteristics yet (fresh application): fall back to a
		// single core (one hardware thread) of the most efficient kind, at a
		// neutral cost, so the app can run and be explored.
		cands = append(cands, a.fallback)
	}
	st.candBuf, st.cands, st.facts, st.reps = cands, cands, facts, st.reps[:0]
	return nil
}

// lagRep is one representative candidate in the subgradient scan: its index
// in the app's candidate list with cost and demand pre-converted to float64.
type lagRep struct {
	idx    int
	cost   float64
	demand []float64
}

// lagGroup is the applications of one solve that share one candidate list —
// they were built from the same table (buildState) — so the relaxed
// minimisation picks the same index for all of them under any λ. st is the
// first member in input order, the list's owner; n is the member count and
// best the index the current iteration picked.
type lagGroup struct {
	st   *appState
	n    int
	best int
}

// lagrangianSelect runs the subgradient iteration on the relaxed problem:
// each application independently minimises cost + λ·demand, and λ rises on
// over-demanded kinds. It returns the number of iterations actually
// performed and retains the final λ for warm starts.
//
// The minimisation depends only on λ and on the application's candidate
// costs and demands, and thousands of sessions typically share a handful of
// tables. The iteration therefore minimises once per distinct table — once
// per group of states sharing one candidate list (groupStates) — and adds
// the group's demand times its size, in integer arithmetic, so the sum is
// exact. Two pointers to equal content make two groups, which costs one more
// minimisation and picks the same indices. Within a list, candidates
// sharing a core-demand vector see the same λ·demand penalty, so only the
// cheapest of them — the first in cost order — can win: the scan visits one
// representative per distinct demand vector (tens instead of hundreds), with
// demands pre-converted to float64. Representatives keep first-occurrence
// order and the per-candidate arithmetic is unchanged, so the selected
// indices, and with them the final allocation, are bit-identical to a scan
// of every candidate of every application (TestGroupedLambdaMatchesScan).
//
// warm, when non-nil, seeds λ₀ instead of zeros (see warmstart.go); the
// arithmetic is otherwise unchanged, so a nil warm reproduces the cold solve
// exactly.
//
// The iteration stops early at a λ fixpoint: if an update leaves every
// component unchanged, every future iteration is identical — the choices
// depend only on λ, and an unchanged λ means each kind had over == 0 (for
// λ[k] > 0) or over ≤ 0 (for λ[k] == 0), conditions the shrinking step
// schedule preserves. Exiting there is therefore bit-identical to running
// the full budget, and it makes the returned count a real
// iterations-to-convergence measure.
func (a *Allocator) lagrangianSelect(states []*appState, capacity []int, warm []float64) int {
	nk := len(capacity)
	s := &a.scratch
	s.lambda = resize(s.lambda, nk)
	lambda := s.lambda
	if warm != nil {
		copy(lambda, warm)
	} else {
		for k := range lambda {
			lambda[k] = 0
		}
	}
	s.lambdaPrev = resize(s.lambdaPrev, nk)
	prev := s.lambdaPrev

	// Scale for the multiplier updates: typical cost per core, summed over
	// every application in input order (float addition is order-sensitive).
	var costSum, coreSum float64
	for _, st := range states {
		for i := range st.cands {
			costSum += st.cands[i].cost
			for _, d := range st.cands[i].demand {
				coreSum += float64(d)
			}
		}
	}
	scale := 1.0
	if coreSum > 0 && costSum > 0 {
		scale = costSum / coreSum
	}

	groups := s.groupStates(states)
	s.buildReps(groups)

	s.demand = resize(s.demand, nk)
	demand := s.demand
	iters := lagrangianIters
	for it := 0; it < lagrangianIters; it++ {
		if it > 0 && a.overBudget != nil && a.overBudget() {
			// Deadline cutoff (degradation-ladder rung 1): keep the
			// selection from the previous iteration rather than miss the
			// epoch's budget chasing convergence.
			iters = it
			break
		}
		for k := range demand {
			demand[k] = 0
		}
		for gi := range groups {
			g := &groups[gi]
			best := 0
			bestVal := math.Inf(1)
			// By index: a by-value range copies each 40-byte representative
			// onto the stack, and that copy's speed depends on where the
			// goroutine's stack happens to sit.
			reps := g.st.reps
			for ri := range reps {
				r := &reps[ri]
				v := r.cost
				for k, d := range r.demand {
					v += lambda[k] * d
				}
				if v < bestVal {
					bestVal = v
					best = r.idx
				}
			}
			g.best = best
			for k, d := range g.st.cands[best].demand {
				demand[k] += g.n * d
			}
		}
		copy(prev, lambda)
		step := scale * 2 / float64(it+2)
		for k := range lambda {
			// A platform kind always has capacity >= 1, but incremental
			// re-solves can present a kind whose residual capacity is fully
			// pinned away; normalise by 1 there so the over-demand signal
			// stays finite.
			denom := float64(capacity[k])
			if denom <= 0 {
				denom = 1
			}
			over := float64(demand[k]-capacity[k]) / denom
			lambda[k] = math.Max(0, lambda[k]+step*over)
		}
		if floatsEqual(lambda, prev) {
			iters = it + 1
			break
		}
	}
	for _, st := range states {
		st.chosen = groups[st.owner.group].best
	}
	a.rememberLambda(lambda)
	return iters
}

// groupStates partitions states into one group per candidate list — per
// owner, and so per distinct table pointer — in order of first occurrence,
// and records each owner's group in its group field. buildState runs in
// input order, so an owner precedes every state that shares its list. The
// group buffer is retained in the scratch, so a steady-state solve
// allocates nothing here.
func (s *solverScratch) groupStates(states []*appState) []lagGroup {
	groups := s.groups[:0]
	for _, st := range states {
		if st.owner == st {
			st.group = int32(len(groups))
			groups = append(groups, lagGroup{st: st})
		}
		groups[st.owner.group].n++
	}
	s.groups = groups
	return groups
}

// buildReps gives each group's owner the representatives of its candidate
// list: per distinct demand vector, the first (cheapest) candidate. They
// depend only on the list, so an owner that kept its list (buildState) keeps
// them too. They are carved from the owner's own arenas, whose capacity is
// ensured up front (the list's length bounds the representative count), so
// carving never reallocates and the slices stay valid.
func (s *solverScratch) buildReps(groups []lagGroup) {
	if s.seen == nil {
		s.seen = make(map[uint64]bool)
	}
	for gi := range groups {
		st := groups[gi].st
		if len(st.reps) > 0 {
			continue
		}
		clear(s.seen)
		reps := slices.Grow(st.reps[:0], len(st.cands))
		fdBuf := slices.Grow(st.fdBuf[:0], len(st.cands)*len(st.cands[0].demand))
		for i := range st.cands {
			c := &st.cands[i]
			key, ok := demandKey(c.demand)
			if ok {
				if s.seen[key] {
					continue
				}
				s.seen[key] = true
			}
			fdStart := len(fdBuf)
			for _, d := range c.demand {
				fdBuf = append(fdBuf, float64(d))
			}
			reps = append(reps, lagRep{idx: i, cost: c.cost, demand: fdBuf[fdStart:len(fdBuf):len(fdBuf)]})
		}
		st.reps, st.fdBuf = reps, fdBuf
	}
}

// floatsEqual reports element-wise equality (bitwise, as the fixpoint test
// requires — no tolerance).
func floatsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// demandKey packs a per-kind core-demand vector into a dedup key; ok is
// false when the vector does not fit (the caller then keeps the candidate
// without deduplication, which is always correct).
//
// Each element is stored biased by one so that a leading zero demand still
// occupies its 16-bit slot: without the bias, [1 2] and [0 1 2] packed to
// the same key, and any caller deduplicating across vectors of different
// lengths would silently reuse the wrong λ-dot-product representative. The
// bias costs one value of headroom, hence the 1<<16−1 bound.
func demandKey(demand []int) (key uint64, ok bool) {
	if len(demand) > 4 {
		return 0, false
	}
	for _, d := range demand {
		if d < 0 || d >= 1<<16-1 {
			return 0, false
		}
		key = key<<16 | uint64(d+1)
	}
	return key, true
}

// repair makes the relaxed selection feasible: in application order, keep
// the Lagrangian choice if it fits the remaining capacity, otherwise take
// the cheapest fitting candidate; applications with no fitting candidate are
// deferred to co-allocation (chosen stays, CoAllocated set later).
func (a *Allocator) repair(states []*appState, capacity []int) {
	a.scratch.remaining = resize(a.scratch.remaining, len(capacity))
	remaining := a.scratch.remaining
	copy(remaining, capacity)
	take := func(demand []int) {
		for k, d := range demand {
			remaining[k] -= d
		}
	}
	for _, st := range states {
		if st.chosen >= 0 && fitsWithin(st.cands[st.chosen].demand, remaining) {
			take(st.cands[st.chosen].demand)
			continue
		}
		found := -1
		for i := range st.cands { // cands sorted by cost
			if fitsWithin(st.cands[i].demand, remaining) {
				found = i
				break
			}
		}
		if found >= 0 {
			st.chosen = found
			take(st.cands[found].demand)
		} else {
			// Co-allocation fallback: smallest-demand candidate. Its demand
			// is deliberately not taken from the accounting — the overflow is
			// resolved by placement sharing cores for this state, not by
			// starving later applications.
			st.chosen = smallestDemand(st.cands)
			st.coalloc = true
		}
	}
}

// rescueMaxSwitches bounds how many other applications a rescue may switch
// at once; rescueBudget caps the search nodes per deferred application so
// rescue stays cheap on production-sized tables.
const (
	rescueMaxSwitches = 2
	rescueBudget      = 200_000
)

// rescueMaxDeferred skips rescue entirely when more applications were
// deferred to co-allocation than could plausibly be lifted back: mass
// oversubscription (thousands of sessions on tens of cores) has no isolated
// arrangement to find, and O(deferred × rescueBudget) search there would
// dominate the epoch. Small instances — everything the differential oracle
// covers — are unaffected.
const rescueMaxDeferred = 32

// pairMoveMaxApps bounds the pairwise-exchange neighbourhood of improve: a
// pass looks up a partner for every (app, cheaper candidate, other app)
// triple, O(N² × candidates), which is noise for oracle-sized instances but
// would dwarf the solve itself at churn scale. Single moves still run at any
// size.
const pairMoveMaxApps = 64

// rescue tries to lift co-allocated applications back into spatial isolation.
// repair walks applications in order without backtracking, so early
// applications holding large points can push a later one into co-allocation
// even when rearranging their choices would make everything fit — a
// systematic gap the differential oracle exposed (see DESIGN.md §6). For
// each deferred application, rescue searches its candidates combined with up
// to rescueMaxSwitches switches in other isolated applications, applies the
// cheapest combination under which every kind stays within capacity, and
// repeats until no deferred application can be lifted. The loop terminates:
// each round clears at least one coalloc flag and rescue never sets one.
//
// The search (rescueSearch.dfs) skips every subtree in which no node can
// fit but charges the budget the nodes the plain depth-first search would
// have visited there, so it lifts exactly what the plain search lifts;
// TestRescueMatchesScan holds it to that search.
func (a *Allocator) rescue(states []*appState, capacity []int) {
	deferred := 0
	for _, st := range states {
		if st.coalloc {
			deferred++
		}
	}
	if deferred == 0 || deferred > rescueMaxDeferred {
		return
	}
	r := &a.scratch.rescue
	for changed := true; changed; {
		changed = false
		for _, st := range states {
			if !st.coalloc {
				continue
			}
			r.prepare(st, states, capacity)
			r.search()
			if r.bestCand >= 0 {
				st.chosen = r.bestCand
				st.coalloc = false
				for i := range r.bestSw {
					r.bestSw[i].app.chosen = r.bestSw[i].cand
				}
				changed = true
			}
		}
	}
}

// rescueSwitch moves isolated application app to candidate cand.
type rescueSwitch struct {
	app  *appState
	cand int
}

// rescueRow is the number of switch counts a search node can have, 0 to
// rescueMaxSwitches: node (oi, s) — others[oi:] still to decide, s switches
// made — has row oi*rescueRow+s in rescueSearch's tables.
const rescueRow = rescueMaxSwitches + 1

// rescueSearch is rescue's depth-first search for one deferred application,
// kept in the solver scratch so that the miss path allocates nothing once
// its buffers have grown.
//
// Each node first asks whether anything below it can fit. Switching one
// application changes kind k's need by no less than that application's
// most negative single-switch change, so below node (oi, s) need[k] never
// drops under need[k] + floor, floor being the sum of the
// rescueMaxSwitches−s most negative such changes over others[oi:]. When
// that is still positive for some kind, no node of the subtree fits, and
// the plain search would visit all of its N(oi, s) nodes without effect:
// N(oi, s) = 1 when oi = len(others) or s = rescueMaxSwitches, else
// 1 + N(oi+1, s) + (len(cands)−1)·N(oi+1, s+1). The search charges that
// count and returns. Every node that fits is still reached in the same
// order with the same budget left, and exhaustion falls at the same point
// (past it only the budget's sign matters), so the outcome is the plain
// search's.
type rescueSearch struct {
	st     *appState
	others []*appState
	// remaining is the capacity the isolated applications leave.
	remaining []int
	// need[k] > 0 means kind k still lacks cores for the candidate under the
	// switches applied so far; need ≤ 0 everywhere is exactly "all isolated
	// choices plus the candidate fit".
	need []int
	// floor[row*nk+k] bounds how far kind k's need can fall below node row;
	// size[row] is the node's N, saturated at rescueBudget+1 (a larger
	// charge exhausts the budget just the same); top holds, per kind, the
	// rescueMaxSwitches most negative single-switch changes seen while the
	// tables are built, ascending.
	floor, size, top []int

	budget        int
	bestCost      float64
	bestCand      int
	bestSw, curSw []rescueSwitch
}

// prepare sets the search up for deferred application st: the isolated
// applications as others, the capacity they leave, and the floor and size
// tables over others.
func (r *rescueSearch) prepare(st *appState, states []*appState, capacity []int) {
	nk := len(capacity)
	r.st = st
	r.remaining = resize(r.remaining, nk)
	copy(r.remaining, capacity)
	r.others = r.others[:0]
	for _, o := range states {
		if o.coalloc || o.chosen < 0 {
			continue
		}
		for k, d := range o.cands[o.chosen].demand {
			r.remaining[k] -= d
		}
		r.others = append(r.others, o)
	}
	n := len(r.others)
	r.floor = resize(r.floor, (n+1)*rescueRow*nk)
	r.size = resize(r.size, (n+1)*rescueRow)
	r.top = resize(r.top, nk*rescueMaxSwitches)
	clear(r.top)
	for oi := n; oi >= 0; oi-- {
		if oi < n {
			o := r.others[oi]
			cur := o.cands[o.chosen].demand
			for k := range nk {
				change := 0 // leaving o as it is
				for alt := range o.cands {
					if alt != o.chosen {
						change = min(change, o.cands[alt].demand[k]-cur[k])
					}
				}
				for m := k * rescueMaxSwitches; m < (k+1)*rescueMaxSwitches; m++ {
					if change < r.top[m] {
						change, r.top[m] = r.top[m], change
					}
				}
			}
		}
		for s := range rescueRow {
			row := oi*rescueRow + s
			for k := range nk {
				sum := 0
				for _, c := range r.top[k*rescueMaxSwitches : (k+1)*rescueMaxSwitches-s] {
					sum += c
				}
				r.floor[row*nk+k] = sum
			}
			r.size[row] = 1
			if oi < n && s < rescueMaxSwitches {
				below := r.size[row+rescueRow] + (len(r.others[oi].cands)-1)*r.size[row+rescueRow+1]
				r.size[row] = min(1+below, rescueBudget+1)
			}
		}
	}
}

// search runs the budgeted search over every candidate of the deferred
// application, leaving the cheapest fitting combination in bestCand and
// bestSw (bestCand -1: none).
func (r *rescueSearch) search() {
	r.budget = rescueBudget
	r.bestCost, r.bestCand = math.Inf(1), -1
	r.bestSw, r.curSw = r.bestSw[:0], r.curSw[:0]
	r.need = resize(r.need, len(r.remaining))
	for ci := range r.st.cands {
		if r.budget < 0 {
			return
		}
		for k, d := range r.st.cands[ci].demand {
			r.need[k] = d - r.remaining[k]
		}
		r.dfs(0, 0, ci, 0)
	}
}

// dfs visits node (oi, switches) for candidate ci, delta being the cost
// change of the switches made so far.
func (r *rescueSearch) dfs(oi, switches, ci int, delta float64) {
	row := oi*rescueRow + switches
	floor := r.floor[row*len(r.need) : (row+1)*len(r.need)]
	fits := true
	for k, n := range r.need {
		if n > 0 {
			fits = false
			if n+floor[k] > 0 {
				r.budget -= r.size[row] // nothing below fits
				return
			}
		}
	}
	if r.budget--; r.budget < 0 {
		return
	}
	if fits {
		if total := r.st.cands[ci].cost + delta; total < r.bestCost {
			r.bestCost, r.bestCand = total, ci
			r.bestSw = append(r.bestSw[:0], r.curSw...)
		}
		return
	}
	if oi >= len(r.others) || switches >= rescueMaxSwitches {
		return
	}
	r.dfs(oi+1, switches, ci, delta) // leave others[oi] as is
	o := r.others[oi]
	cur := &o.cands[o.chosen]
	for alt := range o.cands {
		if r.budget < 0 {
			return
		}
		if alt == o.chosen {
			continue
		}
		oc := &o.cands[alt]
		for k := range r.need {
			r.need[k] += oc.demand[k] - cur.demand[k]
		}
		r.curSw = append(r.curSw, rescueSwitch{o, alt})
		r.dfs(oi+1, switches+1, ci, delta+oc.cost-cur.cost)
		r.curSw = r.curSw[:len(r.curSw)-1]
		for k := range r.need {
			r.need[k] -= oc.demand[k] - cur.demand[k]
		}
	}
}

// improve runs a local search over the feasible selection until a fixpoint:
// first single moves (one application to a cheaper point within leftover
// capacity), then pairwise exchanges (one application moves cheaper while a
// second simultaneously switches — possibly to a dearer point — so the pair
// fits and the summed cost still drops). The pairwise neighbourhood matters:
// the subgradient iteration can terminate with app A squatting on the cores
// whose release would let app B take a far cheaper point, a local optimum no
// single move escapes (found by the differential oracle; see DESIGN.md §6).
//
// Both neighbourhoods take the first move of a fixed scan order — states in
// order, each state's candidates by index — and candidates are cost-sorted,
// so the search can stop early without changing which move is taken:
//
//   - a candidate no cheaper than the chosen one ends the search for a
//     cheaper point, since every later candidate is no cheaper either;
//   - for a fixed move of app a and partner b, the summed cost change
//     (na−ca)+(nb−cb) never decreases as nb's index grows (float rounding is
//     monotone), so the first partner candidate the scan would accept is the
//     lowest-index candidate other than b's chosen one that fits, and the
//     exchange happens only if that candidate also lowers the summed cost.
//
// The second point turns the partner scan into a lookup (see partner), so a
// pairwise pass costs O(apps² × cheaper candidates) lookups instead of the
// O(apps² × candidates²) scan; TestImproveMatchesScan holds improve to that
// scan move for move.
//
// Every accepted move strictly decreases the summed cost while the per-kind
// capacity deltas keep remaining non-negative, so spatial isolation is
// preserved move by move — in particular a kind with zero remaining capacity
// only ever admits combinations that shrink or hold its demand — and the
// strictly decreasing cost over a finite assignment space bounds the loop.
func (a *Allocator) improve(states []*appState, capacity []int) {
	nk := len(capacity)
	s := &a.scratch
	s.remaining = resize(s.remaining, nk)
	remaining := s.remaining
	copy(remaining, capacity)
	for _, st := range states {
		if st.chosen < 0 {
			continue
		}
		for k, d := range st.cands[st.chosen].demand {
			remaining[k] -= d
		}
	}
	for k := range remaining {
		if remaining[k] < 0 {
			return // co-allocated system; nothing to improve safely
		}
	}
	apply := func(st *appState, i int) {
		cur := st.cands[st.chosen].demand
		for k, d := range st.cands[i].demand {
			remaining[k] -= d - cur[k]
		}
		st.chosen = i
	}
	singleMove := func() bool {
		moved := false
		for _, st := range states {
			cur := &st.cands[st.chosen]
			for i := range st.cands {
				c := &st.cands[i]
				if c.cost >= cur.cost {
					break // cost-sorted: nothing cheaper from here on
				}
				ok := true
				for k, d := range c.demand {
					if d-cur.demand[k] > remaining[k] {
						ok = false
						break
					}
				}
				if ok {
					apply(st, i)
					moved = true
					break
				}
			}
		}
		return moved
	}
	if len(states) > pairMoveMaxApps {
		for singleMove() {
		}
		return
	}
	s.limit = resize(s.limit, 2*nk)
	base, limit := s.limit[:nk], s.limit[nk:]
	cells := s.fitStrides(capacity)
	for _, st := range states {
		st.grid = nil
		if cells > 0 && cells <= fitGridCellsPerCand*len(st.cands) {
			st.buildFit(capacity, s.stride, cells)
		}
	}
	pairMove := func() bool {
		for ai, sa := range states {
			ca := &sa.cands[sa.chosen]
			for i := range sa.cands {
				na := &sa.cands[i]
				if na.cost >= ca.cost {
					break // cost-sorted: nothing cheaper from here on
				}
				gain := na.cost - ca.cost
				for k := range base {
					base[k] = remaining[k] - na.demand[k] + ca.demand[k]
				}
				for bi, sb := range states {
					if bi == ai {
						continue
					}
					cb := sb.cands[sb.chosen].demand
					for k := range limit {
						limit[k] = base[k] + cb[k]
					}
					if j := sb.partner(gain, limit, s.stride); j >= 0 {
						apply(sa, i)
						apply(sb, j)
						return true
					}
				}
			}
		}
		return false
	}
	for singleMove() || pairMove() {
	}
}

// fitGridCellsPerCand bounds a state's first-fit grid relative to its
// candidate count. Past it — a platform with many kinds, a table with few
// points — building the grid would outweigh the partner scans it saves, and
// partner scans the candidates instead.
const fitGridCellsPerCand = 4

// fitStrides lays out the first-fit grid for capacity — cell index Σ d[k] ×
// stride[k] over demand vectors d with 0 ≤ d[k] ≤ capacity[k] — into
// s.stride, and returns the cell count, or 0 past math.MaxInt32 cells.
func (s *solverScratch) fitStrides(capacity []int) int {
	s.stride = resize(s.stride, len(capacity))
	cells := 1
	for k, c := range capacity {
		s.stride[k] = cells
		if cells > math.MaxInt32/(c+1) {
			return 0
		}
		cells *= c + 1
	}
	return cells
}

// fitNone marks an empty cell of the first-fit grid.
const fitNone = math.MaxInt32

// buildFit prepares partner's lookup: st.grid holds, for every demand vector
// within capacity, the lowest candidate index whose demand fits within it in
// every kind. Each candidate lands on its own demand cell, then a
// prefix-minimum sweep along every kind spreads it to all the cells above.
// Candidates exceeding capacity are left out: partner's limits never exceed
// the capacity improve was given, which for incremental re-solves is the
// residual.
//
// The grid depends only on the candidates and the capacity, so one build
// serves every pairMove pass of an improve call.
func (st *appState) buildFit(capacity, stride []int, cells int) {
	if cap(st.gridBuf) < cells {
		st.gridBuf = make([]int32, cells)
	}
	g := st.gridBuf[:cells]
	for i := range g {
		g[i] = fitNone
	}
	for j := len(st.cands) - 1; j >= 0; j-- { // lowest index written last
		if d := st.cands[j].demand; fitsWithin(d, capacity) {
			g[cellOf(d, stride)] = int32(j)
		}
	}
	for k, sk := range stride {
		span := sk * (capacity[k] + 1)
		for x := 0; x < cells; x++ {
			if x%span >= sk { // coordinate k > 0: fold in the cell below along k
				g[x] = min(g[x], g[x-sk])
			}
		}
	}
	st.grid = g
}

// cellOf is the first-fit grid cell of demand vector d.
func cellOf(d, stride []int) int {
	c := 0
	for k, x := range d {
		c += x * stride[k]
	}
	return c
}

// partner answers pairMove's question for state st as the partner b: given
// the first mover's cost change gain and the per-kind limit b's new demand
// must fit within, it returns the candidate the historical scan — every
// j ≠ chosen in index order, taking the first with gain+(nb−cb) < 0 and a
// fitting demand — would take, or -1. That is the lowest fitting index other
// than chosen, provided it passes the cost test (see improve). b's chosen
// candidate itself never fits when pairMove runs — it would mean the first
// mover fits alone, a single move singleMove has already ruled out — so the
// grid's lowest fitting index is the answer; should it be chosen after all,
// the scan answers instead. Without a grid the scan always answers, stopping
// at the first candidate that fails the cost test.
func (st *appState) partner(gain float64, limit, stride []int) int {
	cb := st.cands[st.chosen].cost
	if st.grid != nil {
		j := fitNone
		if !slices.ContainsFunc(limit, func(l int) bool { return l < 0 }) {
			j = int(st.grid[cellOf(limit, stride)])
		}
		if j != st.chosen {
			if j == fitNone || gain+(st.cands[j].cost-cb) >= 0 {
				return -1
			}
			return j
		}
	}
	for j := range st.cands {
		if j == st.chosen {
			continue
		}
		nb := &st.cands[j]
		if gain+(nb.cost-cb) >= 0 {
			return -1
		}
		if fitsWithin(nb.demand, limit) {
			return j
		}
	}
	return -1
}

// fitsWithin reports whether demand[k] <= limit[k] in every kind.
func fitsWithin(demand, limit []int) bool {
	for k, d := range demand {
		if d > limit[k] {
			return false
		}
	}
	return true
}

// CapacityError reports that assigning spatially isolated cores ran past a
// kind's capacity even though repair accounted every isolated choice as
// fitting. That is an internal solver invariant violation — the accounting
// and the assignment disagree — and it must surface as an error, never as a
// silently shared core dressed up as an isolated grant.
type CapacityError struct {
	// App is the application whose grant overflowed.
	App string
	// Kind indexes the overflowed core kind on the platform.
	Kind int
	// Granted is how many isolated cores of the kind were already handed out
	// when the overflow happened; Capacity is how many exist.
	Granted, Capacity int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("alloc: internal: isolated assignment for %q overflows kind %d (%d granted, %d exist)",
		e.App, e.Kind, e.Granted, e.Capacity)
}

// assignCores places the selected operating points on concrete cores
// against the standing placement, aligned by src (see placeCores). Repair
// accounted every isolated choice as fitting the capacity, so running out
// of cores here returns *CapacityError instead of quietly double-granting a
// core. States repair deferred to co-allocation share cores, idle ones
// first.
func (a *Allocator) assignCores(states []*appState, src []int32) ([]Allocation, error) {
	out := resize(a.spare, len(states))
	for i, st := range states {
		if st.chosen < 0 || st.chosen >= len(st.cands) {
			return nil, errors.New("alloc: internal: no chosen candidate")
		}
		out[i] = Allocation{ID: st.id, Point: *st.cands[st.chosen].op, CoAllocated: st.coalloc}
	}
	if _, err := a.placeCores(out, nil, src, false); err != nil {
		return nil, err
	}
	return out, nil
}

// smallestDemand returns the index of the candidate with the fewest total
// cores (ties broken by cost, then key; cands are cost-sorted already).
func smallestDemand(cands []candidate) int {
	best := 0
	bestCores := math.MaxInt
	for i := range cands {
		var cores int
		for _, d := range cands[i].demand {
			cores += d
		}
		if cores < bestCores {
			bestCores = cores
			best = i
		}
	}
	return best
}

// TotalCost sums the energy-utility cost of the chosen points — handy for
// solver-quality comparisons in the ablation bench.
func TotalCost(allocs []Allocation, inputs []AppInput) float64 {
	vstar := make(map[string]float64, len(inputs))
	for _, in := range inputs {
		if in.Table != nil {
			vstar[in.ID] = in.Table.MaxUtility()
		}
	}
	var sum float64
	for _, al := range allocs {
		c := al.Point.Cost(vstar[al.ID])
		if !math.IsInf(c, 1) && !math.IsNaN(c) {
			sum += c
		}
	}
	return sum
}

// Overlaps reports whether two allocations share any (core, hardware-thread)
// pair — used by invariant tests: non-co-allocated allocations must never
// overlap. Grants on a core always occupy its hardware threads from sibling 0
// upward, so two allocations collide exactly when both hold a positive thread
// count on a common core. An allocation may carry several grants for the same
// core (the co-allocation wrap-around case); the per-core occupancy is the
// maximum over its grants — assigning the last grant's count would let a
// trailing zero-thread grant mask a genuine overlap.
func Overlaps(a, b Allocation) bool {
	used := make(map[int]int, len(a.Grants))
	for _, g := range a.Grants {
		if g.Threads > used[g.Core] {
			used[g.Core] = g.Threads
		}
	}
	for _, g := range b.Grants {
		if g.Threads > 0 && used[g.Core] > 0 {
			return true
		}
	}
	return false
}
