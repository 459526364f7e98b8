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
	"strings"

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
	// MaxUtility overrides v* for cost normalisation; 0 derives it from the
	// table.
	MaxUtility float64
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
// λ vector for warm starts and a reusable solver scratch arena — and is not
// goroutine-safe; embedders (the Manager, benchmarks) serialise solves, as
// they already do for the Manager itself.
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

	// Incremental re-solve state (incremental.go): standing allocations
	// pinned per application, the epochs since the last full solve, and the
	// cost-slack baseline the drift bound compares against.
	inc           bool
	incFullEvery  int
	incDriftBound float64
	incPins       map[string]*pinnedApp
	incSeq        uint64 // pin-epoch of the last solve that refreshed the pins
	incSinceFull  int
	incBaseSlack  float64
	incHaveBase   bool
	incScratch    incScratch

	// overBudget, when set, is polled between subgradient iterations; a
	// true return cuts the λ loop off early (repair still makes the
	// partial selection feasible). See SetOverBudget.
	overBudget func() bool

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
// per-app states with their candidate and demand buffers, and the
// representative arenas of the subgradient iteration. Nothing in here may
// escape into a returned Allocation — assignCores always builds fresh output
// slices precisely because cache entries retain them.
type solverScratch struct {
	capacity   []int
	states     []*appState
	usable     []opoint.OperatingPoint
	lambda     []float64
	lambdaPrev []float64
	demand     []int
	remaining  []int
	nextFree   []int
	reps       [][]lagRep
	repBuf     []lagRep
	fdBuf      []float64
	seen       map[uint64]bool
}

// ensureStates returns n reusable per-app states.
func (s *solverScratch) ensureStates(n int) []*appState {
	for len(s.states) < n {
		s.states = append(s.states, new(appState))
	}
	return s.states[:n]
}

// growInts returns buf resized to n, reallocating only when it must.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// roomFor is the capacity to allocate when a retained per-application buffer
// must grow to n entries: headroom for arrivals, so a population creeping
// upward reallocates a buffer now and then rather than on every solve.
func roomFor(n int) int { return n + n/4 + 16 }

// growFloats is growInts for float64 slices.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
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
// is a sensible capacity for production managers. Cache hits return the
// memoised []Allocation without copying — callers must treat it as
// read-only.
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
	a := &Allocator{plat: plat, method: Lagrangian}
	for _, o := range opts {
		o.apply(a)
	}
	if a.method != Lagrangian && a.method != Greedy {
		return nil, fmt.Errorf("alloc: bad method %d", a.method)
	}
	if a.cacheSize > 0 {
		a.cache = newSolutionCache(a.cacheSize)
	}
	if a.incFullEvery < 1 {
		a.incFullEvery = DefaultIncrementalFullEvery
	}
	if a.incDriftBound <= 0 {
		a.incDriftBound = DefaultIncrementalDriftBound
	}
	if a.inc {
		a.incPins = make(map[string]*pinnedApp)
		// Never nil: a nil Stats.Changed reads as "everything moved".
		a.incScratch.changed = make([]int, 0, 16)
	}
	a.fpBase = a.fingerprintBase()
	if a.metrics != nil {
		a.fingerprintHist = a.metrics.EpochPhase.With(telemetry.PhaseFingerprint)
		a.solveHist = a.metrics.EpochPhase.With(telemetry.PhaseSolve)
		a.repairHist = a.metrics.EpochPhase.With(telemetry.PhaseRepair)
	}
	return a, nil
}

// candidate is an operating point with its precomputed cost and demand.
type candidate struct {
	op     opoint.OperatingPoint
	cost   float64
	demand []int
}

// appState is the per-application solver view. States live in the solver
// scratch and are reset per solve; demandBuf is the arena the candidates'
// demand slices are carved from.
type appState struct {
	id     string
	cands  []candidate
	chosen int // index into cands, -1 = none
	// coalloc records that repair found no candidate fitting the remaining
	// capacity and deferred the application to co-allocation; assignCores
	// wraps exactly these states around the capacity. A wrap attempt by any
	// other state is an internal accounting bug surfaced as *CapacityError.
	coalloc   bool
	demandBuf []int
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
	// SourceSharded is a solve partitioned into independent allocation
	// domains by platform-kind footprint and solved in parallel (see
	// sharded.go). Single-domain sharded solves keep the child's source.
	SourceSharded = "sharded"

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
	// SourceCached, SourceIncremental or SourceSharded.
	Source string
	// Pinned and Resolved break an incremental solve down: Pinned
	// applications kept their standing allocation, Resolved went through the
	// residual re-solve (both 0 for full solves).
	Pinned, Resolved int
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
	Changed []int `json:"-"`
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
// and valid until the allocator's next solve — a cache hit returns the
// memoised slice itself (zero heap allocations, Stats.Source = SourceCached),
// an incremental merge returns a buffer the next merge overwrites. Grant
// lists are the exception in the caller's favour: once built they are never
// written again, so a caller may keep a []CoreGrant (the Manager's pushed
// decisions do) — but must copy anything else it wants to outlive the next
// solve. Misses run the full pipeline and memoise the result.
func (a *Allocator) AllocateWithStats(apps []AppInput) ([]Allocation, Stats, error) {
	return a.solve(apps, nil, nil)
}

// solve is AllocateWithStats for a caller that may own the result buffer —
// Sharded, which merges its children's domains into one positional slice.
// With dst set, an incremental merge writes allocation i straight to
// dst[pos[i]] and returns a nil slice, so the merged domain is never held
// twice; every other path returns its own slice for the caller to place.
func (a *Allocator) solve(apps []AppInput, dst []Allocation, pos []int) ([]Allocation, Stats, error) {
	var stats Stats
	if len(apps) == 0 {
		return nil, stats, nil
	}

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
				stats = e.stats
				stats.Source = SourceCached
				stats.LambdaIters = 0
				// With incremental solving on, pins track the standing
				// solution even across cache hits, so a later changed-set
				// merge starts from what was actually returned. A no-op
				// (and still zero-allocation) when incremental is off.
				a.rememberFullSolve(apps, e.allocs)
				a.emitTrace(stats)
				return e.allocs, stats, nil
			}
			if a.metrics != nil {
				a.metrics.AllocCacheMisses.Inc()
			}
		}
		sp.End()
	}

	s := &a.scratch
	s.capacity = growInts(s.capacity, len(a.plat.Kinds))
	capacity := s.capacity
	for k, kind := range a.plat.Kinds {
		capacity[k] = kind.Count
	}

	solveSpan := a.tracer.BeginPhase(telemetry.PhaseSolve, a.solveHist)

	// Incremental path (incremental.go): when pins from a previous solve
	// exist and only a small changed set of applications differs, re-solve
	// just that set against the residual capacity. Falls through to the full
	// pipeline when ineligible, on drift or on the full-solve cadence.
	if out, incStats, ok, err := a.tryIncremental(apps, capacity, dst, pos); ok || err != nil {
		solveSpan.End()
		if err != nil {
			return nil, stats, err
		}
		a.emitTrace(incStats)
		return out, incStats, nil
	}

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
	out, err := a.assignCores(states)
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
	a.rememberFullSolve(apps, out)
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

// buildState Pareto-filters the table and precomputes costs into a reusable
// per-app state. Candidate demand vectors are carved from the state's demand
// arena; the arena never escapes into returned Allocations.
//
// Unusable points — zero vectors and points whose cost guard yields a
// non-finite cost (e.g. a zero-power measurement) — are dropped BEFORE Pareto
// filtering. The Pareto objectives score low power and low demand as better,
// so a degenerate zero-power or zero-vector point dominates every honest
// point and, filtered afterwards, would evict the whole usable front and
// silently collapse the application onto the free fallback candidate (found
// by the differential oracle; see CORRECTNESS.md). Among usable points
// domination is cost-monotone — higher utility and lower power both lower
// cost = power/vhat² — so pre-filtering keeps the front lossless.
func (a *Allocator) buildState(st *appState, app AppInput) error {
	if err := app.Table.Validate(a.plat); err != nil {
		return err
	}
	vstar := app.MaxUtility
	if vstar <= 0 {
		vstar = app.Table.MaxUtility()
	}
	usable := a.scratch.usable[:0]
	for _, op := range app.Table.Points {
		if op.Usable(vstar) {
			usable = append(usable, op)
		}
	}
	a.scratch.usable = usable[:0]
	var points []opoint.OperatingPoint
	if len(usable) == len(app.Table.Points) {
		points = app.Table.ParetoPoints() // memoised fast path, same front
	} else {
		points = opoint.Pareto(usable, opoint.RuntimeObjectives)
	}
	st.id = app.ID
	st.chosen = -1
	st.coalloc = false
	st.cands = st.cands[:0]
	// Size the demand arena up front: carving then never reallocates, so the
	// candidates' demand slices stay valid.
	nk := len(a.plat.Kinds)
	if need := max(len(points), 1) * nk; cap(st.demandBuf) < need {
		st.demandBuf = make([]int, 0, need)
	}
	buf := st.demandBuf[:0]
	for _, op := range points {
		start := len(buf)
		for kind := range op.Vector.Counts {
			buf = append(buf, op.Vector.Cores(platform.KindID(kind)))
		}
		st.cands = append(st.cands, candidate{
			op:     op,
			cost:   op.Cost(vstar),
			demand: buf[start:len(buf):len(buf)],
		})
	}
	st.demandBuf = buf
	if len(st.cands) == 0 {
		// No usable characteristics yet (fresh application): fall back to a
		// single core of the most efficient kind so the app can run and be
		// explored.
		st.cands = append(st.cands, a.fallbackCandidate())
	}
	slices.SortFunc(st.cands, func(x, y candidate) int {
		if x.cost != y.cost {
			if x.cost < y.cost {
				return -1
			}
			return 1
		}
		return strings.Compare(x.op.Vector.Key(), y.op.Vector.Key())
	})
	return nil
}

// fallbackCandidate is one core (one hardware thread) of the most efficient
// kind with a neutral cost.
func (a *Allocator) fallbackCandidate() candidate {
	rv := platform.NewResourceVector(a.plat)
	kind := len(a.plat.Kinds) - 1
	rv.Counts[kind][0] = 1
	return candidate{
		op:     opoint.OperatingPoint{Vector: rv},
		cost:   0,
		demand: rv.CoreDemand(),
	}
}

// lagRep is one representative candidate in the subgradient scan: its index
// in the app's candidate list with cost and demand pre-converted to float64.
type lagRep struct {
	idx    int
	cost   float64
	demand []float64
}

// lagrangianSelect runs the subgradient iteration on the relaxed problem:
// each application independently minimises cost + λ·demand, and λ rises on
// over-demanded kinds. It returns the number of iterations actually
// performed and retains the final λ for warm starts.
//
// Candidates sharing a core-demand vector see the same λ·demand penalty, so
// within a demand group only the cheapest candidate — the first in cost
// order — can win the relaxed minimisation. The iteration therefore scans
// one representative per distinct demand vector (tens instead of hundreds),
// with demands pre-converted to float64. Representatives keep first-occurrence
// order and the per-candidate arithmetic is unchanged, so the selected
// indices, and with them the final allocation, are bit-identical to the full
// scan.
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
	s.lambda = growFloats(s.lambda, nk)
	lambda := s.lambda
	if warm != nil {
		copy(lambda, warm)
	} else {
		for k := range lambda {
			lambda[k] = 0
		}
	}
	s.lambdaPrev = growFloats(s.lambdaPrev, nk)
	prev := s.lambdaPrev

	// Scale for the multiplier updates: typical cost per core.
	var costSum, coreSum float64
	totalCands := 0
	for _, st := range states {
		totalCands += len(st.cands)
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

	// Representatives are carved from per-solve arenas whose capacity is
	// ensured up front (total candidates bounds the representative count),
	// so carving never reallocates and the slices stay valid.
	if cap(s.repBuf) < totalCands {
		s.repBuf = make([]lagRep, 0, totalCands)
	}
	repBuf := s.repBuf[:0]
	if cap(s.fdBuf) < totalCands*nk {
		s.fdBuf = make([]float64, 0, totalCands*nk)
	}
	fdBuf := s.fdBuf[:0]
	if cap(s.reps) < len(states) {
		s.reps = make([][]lagRep, len(states))
	}
	reps := s.reps[:len(states)]
	if s.seen == nil {
		s.seen = make(map[uint64]bool)
	}
	for si, st := range states {
		clear(s.seen)
		start := len(repBuf)
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
			repBuf = append(repBuf, lagRep{idx: i, cost: c.cost, demand: fdBuf[fdStart:len(fdBuf):len(fdBuf)]})
		}
		reps[si] = repBuf[start:len(repBuf):len(repBuf)]
	}
	s.repBuf, s.fdBuf = repBuf, fdBuf

	s.demand = growInts(s.demand, nk)
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
		for si, st := range states {
			best := 0
			bestVal := math.Inf(1)
			for _, r := range reps[si] {
				v := r.cost
				for k, d := range r.demand {
					v += lambda[k] * d
				}
				if v < bestVal {
					bestVal = v
					best = r.idx
				}
			}
			st.chosen = best
			for k, d := range st.cands[best].demand {
				demand[k] += d
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
	a.rememberLambda(lambda)
	return iters
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
	a.scratch.remaining = growInts(a.scratch.remaining, len(capacity))
	remaining := a.scratch.remaining
	copy(remaining, capacity)
	fits := func(demand []int) bool {
		for k, d := range demand {
			if d > remaining[k] {
				return false
			}
		}
		return true
	}
	take := func(demand []int) {
		for k, d := range demand {
			remaining[k] -= d
		}
	}
	for _, st := range states {
		if st.chosen >= 0 && fits(st.cands[st.chosen].demand) {
			take(st.cands[st.chosen].demand)
			continue
		}
		found := -1
		for i, c := range st.cands { // cands sorted by cost
			if fits(c.demand) {
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
			// resolved by assignCores wrapping this state's grants around the
			// capacity, not by starving later applications.
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

// pairMoveMaxApps bounds the pairwise-exchange neighbourhood of improve: the
// scan is O(N² × candidates²), which is noise for oracle-sized instances but
// would dwarf the solve itself at churn scale. Single moves still run at any
// size.
const pairMoveMaxApps = 64

// rescue tries to lift co-allocated applications back into spatial isolation.
// repair walks applications in order without backtracking, so early
// applications holding large points can push a later one into co-allocation
// even when rearranging their choices would make everything fit — a
// systematic gap the differential oracle exposed (see CORRECTNESS.md). For
// each deferred application, rescue searches its candidates combined with up
// to rescueMaxSwitches switches in other isolated applications, applies the
// cheapest combination under which every kind stays within capacity, and
// repeats until no deferred application can be lifted. The loop terminates:
// each round clears at least one coalloc flag and rescue never sets one.
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
	nk := len(capacity)
	remaining := make([]int, nk)
	recompute := func() {
		copy(remaining, capacity)
		for _, st := range states {
			if st.coalloc || st.chosen < 0 {
				continue
			}
			for k, d := range st.cands[st.chosen].demand {
				remaining[k] -= d
			}
		}
	}
	type switchTo struct {
		app  *appState
		cand int
	}
	for changed := true; changed; {
		changed = false
		for _, st := range states {
			if !st.coalloc {
				continue
			}
			recompute()
			var others []*appState
			for _, o := range states {
				if o != st && !o.coalloc && o.chosen >= 0 {
					others = append(others, o)
				}
			}
			bestCost := math.Inf(1)
			bestCand := -1
			var bestSw, curSw []switchTo
			budget := rescueBudget
			// need[k] > 0 means kind k still lacks cores for the candidate
			// under the switches applied so far; need ≤ 0 everywhere is
			// exactly "all isolated choices plus the candidate fit".
			need := make([]int, nk)
			var dfs func(oi, switches, ci int, delta float64)
			dfs = func(oi, switches, ci int, delta float64) {
				if budget--; budget < 0 {
					return
				}
				fits := true
				for _, n := range need {
					if n > 0 {
						fits = false
						break
					}
				}
				if fits {
					if total := st.cands[ci].cost + delta; total < bestCost {
						bestCost, bestCand = total, ci
						bestSw = append(bestSw[:0], curSw...)
					}
					return
				}
				if oi >= len(others) || switches >= rescueMaxSwitches {
					return
				}
				dfs(oi+1, switches, ci, delta) // leave others[oi] as is
				o := others[oi]
				cur := o.cands[o.chosen]
				for alt, oc := range o.cands {
					if alt == o.chosen {
						continue
					}
					for k := 0; k < nk; k++ {
						need[k] += oc.demand[k] - cur.demand[k]
					}
					curSw = append(curSw, switchTo{o, alt})
					dfs(oi+1, switches+1, ci, delta+oc.cost-cur.cost)
					curSw = curSw[:len(curSw)-1]
					for k := 0; k < nk; k++ {
						need[k] -= oc.demand[k] - cur.demand[k]
					}
				}
			}
			for ci, c := range st.cands {
				for k := 0; k < nk; k++ {
					need[k] = c.demand[k] - remaining[k]
				}
				dfs(0, 0, ci, 0)
			}
			if bestCand >= 0 {
				st.chosen = bestCand
				st.coalloc = false
				for _, s := range bestSw {
					s.app.chosen = s.cand
				}
				changed = true
			}
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
// single move escapes (found by the differential oracle; see CORRECTNESS.md).
//
// Every accepted move strictly decreases the summed cost while the per-kind
// capacity deltas keep remaining non-negative, so spatial isolation is
// preserved move by move — in particular a kind with zero remaining capacity
// only ever admits combinations that shrink or hold its demand — and the
// strictly decreasing cost over a finite assignment space bounds the loop.
func (a *Allocator) improve(states []*appState, capacity []int) {
	a.scratch.remaining = growInts(a.scratch.remaining, len(capacity))
	remaining := a.scratch.remaining
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
		cur := st.cands[st.chosen]
		for k, d := range st.cands[i].demand {
			remaining[k] -= d - cur.demand[k]
		}
		st.chosen = i
	}
	singleMove := func() bool {
		moved := false
		for _, st := range states {
			cur := st.cands[st.chosen]
			for i, c := range st.cands {
				if i == st.chosen || c.cost >= cur.cost {
					continue
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
	pairMove := func() bool {
		for ai, sa := range states {
			ca := sa.cands[sa.chosen]
			for i, na := range sa.cands {
				if i == sa.chosen || na.cost >= ca.cost {
					continue
				}
				for bi, sb := range states {
					if bi == ai {
						continue
					}
					cb := sb.cands[sb.chosen]
					for j, nb := range sb.cands {
						if j == sb.chosen {
							continue
						}
						if (na.cost-ca.cost)+(nb.cost-cb.cost) >= 0 {
							continue
						}
						ok := true
						for k := range remaining {
							delta := na.demand[k] - ca.demand[k] + nb.demand[k] - cb.demand[k]
							if delta > remaining[k] {
								ok = false
								break
							}
						}
						if ok {
							apply(sa, i)
							apply(sb, j)
							return true
						}
					}
				}
			}
		}
		return false
	}
	for {
		if singleMove() {
			continue
		}
		if len(states) > pairMoveMaxApps || !pairMove() {
			return
		}
	}
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

// assignCores maps the selected operating points to concrete cores in two
// passes. Pass one places the spatially isolated applications with a per-kind
// cursor; repair accounted those choices as fitting the capacity, so running
// out of cores here returns *CapacityError instead of quietly double-granting
// a core. Pass two places the applications repair explicitly deferred to
// co-allocation, wrapping round-robin from where the isolated cursor stopped
// so genuinely free cores are shared first.
//
// assignCores deliberately builds fresh output slices on every call — never
// scratch-arena memory — because the solution cache retains its result
// beyond the solve.
func (a *Allocator) assignCores(states []*appState) ([]Allocation, error) {
	return a.assignCoresAvail(states, nil, nil)
}

// assignCoresAvail is assignCores against an explicit per-kind availability:
// avail[kind] lists the free global core indices the assignment may draw
// from, in the order they should be handed out. A nil avail means the full
// kind ranges — bit-identical to the historical assignment. Incremental
// re-solves pass the capacity left over by pinned allocations.
//
// Co-allocated states wrap around the kind's availability list; a kind with
// no free cores at all wraps around its full range instead (the cores are
// time-shared anyway, and a co-allocated grant may legally overlap pinned
// isolated allocations).
//
// out, when non-nil, receives the allocations (len(out) == len(states)) in
// place of a fresh slice; the grant lists are built fresh either way.
func (a *Allocator) assignCoresAvail(states []*appState, avail [][]int, out []Allocation) ([]Allocation, error) {
	coreAt := func(kindIdx, slot int) int {
		if avail == nil {
			lo, _ := a.plat.CoreRange(platform.KindID(kindIdx))
			return lo + slot
		}
		return avail[kindIdx][slot]
	}
	totalOf := func(kindIdx int) int {
		if avail == nil {
			lo, hi := a.plat.CoreRange(platform.KindID(kindIdx))
			return hi - lo
		}
		return len(avail[kindIdx])
	}
	a.scratch.nextFree = growInts(a.scratch.nextFree, len(a.plat.Kinds))
	nextFree := a.scratch.nextFree
	clear(nextFree)
	if out == nil {
		out = make([]Allocation, len(states))
	}
	for si, st := range states {
		if st.chosen < 0 || st.chosen >= len(st.cands) {
			return nil, errors.New("alloc: internal: no chosen candidate")
		}
		cand := st.cands[st.chosen]
		out[si] = Allocation{ID: st.id, Point: cand.op}
		if st.coalloc {
			continue
		}
		for kindIdx, counts := range cand.op.Vector.Counts {
			total := totalOf(kindIdx)
			for tIdx, cores := range counts {
				for c := 0; c < cores; c++ {
					slot := nextFree[kindIdx]
					if slot >= total {
						return nil, &CapacityError{App: st.id, Kind: kindIdx, Granted: slot, Capacity: total}
					}
					out[si].Grants = append(out[si].Grants, CoreGrant{
						Core:    coreAt(kindIdx, slot),
						Threads: tIdx + 1,
					})
					nextFree[kindIdx]++
				}
			}
		}
	}
	for si, st := range states {
		if !st.coalloc {
			continue
		}
		out[si].CoAllocated = true
		cand := st.cands[st.chosen]
		for kindIdx, counts := range cand.op.Vector.Counts {
			total := totalOf(kindIdx)
			wrapFull := total == 0
			lo, hi := a.plat.CoreRange(platform.KindID(kindIdx))
			for tIdx, cores := range counts {
				for c := 0; c < cores; c++ {
					var core int
					if wrapFull {
						core = lo + nextFree[kindIdx]%(hi-lo)
					} else {
						core = coreAt(kindIdx, nextFree[kindIdx]%total)
					}
					out[si].Grants = append(out[si].Grants, CoreGrant{
						Core:    core,
						Threads: tIdx + 1,
					})
					nextFree[kindIdx]++
				}
			}
		}
	}
	return out, nil
}

// smallestDemand returns the index of the candidate with the fewest total
// cores (ties broken by cost, then key; cands are cost-sorted already).
func smallestDemand(cands []candidate) int {
	best := 0
	bestCores := math.MaxInt
	for i, c := range cands {
		var cores int
		for _, d := range c.demand {
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
		v := in.MaxUtility
		if v <= 0 && in.Table != nil {
			v = in.Table.MaxUtility()
		}
		vstar[in.ID] = v
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
