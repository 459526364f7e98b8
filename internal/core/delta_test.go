package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// solutionRecorder sits between the Manager and a solver and keeps a deep
// copy of the full solution of every successful solve, whatever delta the
// solver reported alongside it — the ground truth a delta-driven push walk
// must end up agreeing with.
type solutionRecorder struct {
	inner  Allocator
	shared *recordedSolution
	fail   bool
}

type recordedSolution struct {
	solves, deltas, fulls int
	sources               map[string]int
	inputs                []alloc.AppInput
	allocs                []alloc.Allocation
}

func (r *solutionRecorder) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	if r.fail {
		return nil, alloc.Stats{}, errors.New("injected solver failure")
	}
	allocs, stats, err := r.inner.AllocateWithStats(apps)
	if err != nil {
		return allocs, stats, err
	}
	rec := r.shared
	rec.solves++
	if stats.Changed != nil {
		rec.deltas++
	} else {
		rec.fulls++
	}
	rec.sources[stats.Source]++
	rec.inputs = slices.Clone(apps)
	rec.allocs = rec.allocs[:0]
	for _, al := range allocs {
		al.Point.Vector = al.Point.Vector.Clone()
		al.Grants = slices.Clone(al.Grants)
		rec.allocs = append(rec.allocs, al)
	}
	return allocs, stats, nil
}

// deltaHarness is a Manager over a short-cadence incremental solver (plain
// or sharded), with the recorder in front of both the primary solver and a
// greedy rung-2 fallback.
type deltaHarness struct {
	t        *testing.T
	p        *platform.Platform
	m        *Manager
	rec      *recordedSolution
	primary  *solutionRecorder
	fallback *solutionRecorder
	jbuf     *bytes.Buffer
	pushed   []telemetry.EpochOutput
	mt       *telemetry.Metrics
}

func newDeltaHarness(t *testing.T, sharded bool, pol CoalescePolicy) *deltaHarness {
	t.Helper()
	p := churnTestPlatform(t)
	opts := []alloc.Option{alloc.WithIncremental(true), alloc.WithIncrementalCadence(6), alloc.WithCache(8)}
	var inner Allocator
	var err error
	if sharded {
		inner, err = alloc.NewSharded(p, 2, 0, opts...)
	} else {
		inner, err = alloc.New(p, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := alloc.New(p, alloc.WithMethod(alloc.Greedy))
	if err != nil {
		t.Fatal(err)
	}
	h := &deltaHarness{t: t, p: p, jbuf: &bytes.Buffer{}, rec: &recordedSolution{sources: map[string]int{}}}
	h.primary = &solutionRecorder{inner: inner, shared: h.rec}
	h.fallback = &solutionRecorder{inner: greedy, shared: h.rec}
	h.mt = telemetry.NewMetrics(telemetry.NewRegistry())
	h.m, err = NewManager(Config{
		Platform:           p,
		Allocator:          h.primary,
		DisableExploration: true,
		ReallocEvery:       4,
		Coalesce:           pol,
		Journal:            telemetry.NewJournal(h.jbuf),
		Metrics:            h.mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A custom allocator normally runs without the greedy rung; the harness
	// wants every rung reachable.
	h.m.fallback = h.fallback
	h.m.OnDecision(func(d Decision) {
		h.pushed = append(h.pushed, telemetry.EpochOutput{
			Instance:    d.Instance,
			Seq:         d.Seq,
			Vector:      d.Vector.Key(),
			Threads:     d.Threads,
			Cores:       len(d.Grants),
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			PredPowerW:  d.PredictedPowerW,
		})
	})
	return h
}

// checkAgainstSolution asserts that every session stands on the recorded
// full solution: non-quarantined sessions on their allocation, quarantined
// ones parked. rung is the ladder rung of the epoch that just ran.
func (h *deltaHarness) checkAgainstSolution(step int, rung string) {
	h.t.Helper()
	byID := make(map[string]*alloc.Allocation, len(h.rec.allocs))
	for i := range h.rec.allocs {
		byID[h.rec.allocs[i].ID] = &h.rec.allocs[i]
	}
	var inputs []alloc.AppInput
	var standing []alloc.Allocation
	for _, s := range h.m.order {
		if s == nil {
			continue
		}
		if s.liveness == LivenessQuarantined {
			if s.last == nil || !s.last.Vector.IsZero() || len(s.last.Grants) != 0 {
				h.t.Fatalf("step %d (%s): quarantined %s is not parked: %+v", step, rung, s.instance, s.last)
			}
			continue
		}
		al, ok := byID[s.instance]
		if !ok || s.inputIdx < 0 || h.rec.inputs[s.inputIdx].ID != s.instance {
			h.t.Fatalf("step %d (%s): %s missing from the recorded solve", step, rung, s.instance)
		}
		d := s.last
		if d == nil {
			h.t.Fatalf("step %d (%s): %s has no standing decision — missed push", step, rung, s.instance)
		}
		if !d.Vector.Equal(al.Point.Vector) || d.CoAllocated != al.CoAllocated || d.Exploring ||
			d.Threads != al.Point.Vector.Threads() || !sameGrants(d.Grants, al.Grants) {
			h.t.Fatalf("step %d (%s): %s stands on %s %v (co=%v), the solver said %s %v (co=%v) — missed push",
				step, rung, s.instance, d.Vector.Key(), d.Grants, d.CoAllocated,
				al.Point.Vector.Key(), al.Grants, al.CoAllocated)
		}
		if s.coAllocated != al.CoAllocated {
			h.t.Fatalf("step %d (%s): %s co-allocation flag %v, solver said %v", step, rung, s.instance, s.coAllocated, al.CoAllocated)
		}
		inputs = append(inputs, h.rec.inputs[s.inputIdx])
		standing = append(standing, alloc.Allocation{ID: s.instance, Point: al.Point, Grants: d.Grants, CoAllocated: d.CoAllocated})
	}
	if err := check.CheckAllocations(h.p, inputs, standing); err != nil {
		h.t.Fatalf("step %d (%s): standing decisions: %v", step, rung, err)
	}
}

// checkAggregates asserts the incrementally maintained gauges against a
// from-scratch recount.
func (h *deltaHarness) checkAggregates(step int) {
	h.t.Helper()
	m := h.m
	used := map[int]bool{}
	live := 0
	power := 0.0
	for _, s := range m.sessions {
		if s.liveness == LivenessLive {
			live++
		}
		if s.last == nil {
			continue
		}
		power += s.last.PredictedPowerW
		if !s.last.CoAllocated {
			for _, g := range s.last.Grants {
				used[g.Core] = true
			}
		}
	}
	if m.coresGranted != len(used) {
		h.t.Fatalf("step %d: coresGranted = %d, recount %d", step, m.coresGranted, len(used))
	}
	if m.liveSessions != live || h.mt.SessionsLive.Value() != float64(live) {
		h.t.Fatalf("step %d: live sessions = %d (gauge %v), recount %d", step, m.liveSessions, h.mt.SessionsLive.Value(), live)
	}
	if math.Abs(m.StandingPowerW()-power) > 1e-9*math.Max(1, power) {
		h.t.Fatalf("step %d: standing power = %v, recount %v", step, m.StandingPowerW(), power)
	}
}

// TestDeltaEpochsMatchFullSolution is the delta contract at the Manager:
// random Register/Deregister/UploadTable/PhaseChange/SetLiveness/Measure
// sequences, coalesced and inline, over the incremental and the sharded
// solver, across incremental merges, cadence full solves, cache hits and
// forced degraded-greedy and degraded-stale epochs. After every epoch every
// session's standing decision must equal the solver's full solution — a push
// the walk skipped because "nothing changed there" is exactly what this
// design can get wrong — the structural invariants must hold over the
// standing decisions, and the maintained gauges must equal a recount.
func TestDeltaEpochsMatchFullSolution(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		for _, coalesced := range []bool{false, true} {
			for seed := int64(0); seed < 6; seed++ {
				name := fmt.Sprintf("sharded=%v/coalesced=%v/seed=%d", sharded, coalesced, seed)
				t.Run(name, func(t *testing.T) {
					runDeltaEpochs(t, sharded, coalesced, seed)
				})
			}
		}
	}
}

func runDeltaEpochs(t *testing.T, sharded, coalesced bool, seed int64) {
	h := newDeltaHarness(t, sharded, CoalescePolicy{Enabled: coalesced, MaxDirty: 5})
	m := h.m
	rng := rand.New(rand.NewSource(seed))
	table := func(app int) *opoint.Table {
		// Apps 0-2 live on P cores, 3-5 on E cores: two sharding domains.
		// The utility varies, so a re-upload changes every session of the app.
		tbl := &opoint.Table{App: fmt.Sprintf("app%d", app), Platform: h.p.Name}
		u := 4 + float64(rng.Intn(6))
		for cores := 1; cores <= 2; cores++ {
			rv := platform.NewResourceVector(h.p)
			rv.Counts[app/3][0] = cores
			tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: u * float64(cores) * 0.8, Power: float64(cores), Measured: true})
		}
		return tbl
	}
	var live []string
	nextID := 0
	pick := func() string { return live[rng.Intn(len(live))] }
	rungs := map[string]int{}

	for step := 0; step < 400; step++ {
		before := h.rec.solves
		pushedBefore := len(h.pushed)
		forced := ""
		var err error
		switch roll := rng.Intn(20); {
		case roll < 4 || len(live) < 3:
			app := rng.Intn(6)
			id := fmt.Sprintf("s%03d", nextID)
			nextID++
			if err = m.Register(id, fmt.Sprintf("app%d", app), workload.Scalable, false); err == nil {
				live = append(live, id)
				err = m.UploadTable(id, table(app))
			}
		case roll < 7 && len(live) > 4:
			i := rng.Intn(len(live))
			err = m.Deregister(live[i])
			live = slices.Delete(live, i, i+1)
		case roll < 9:
			id := pick()
			err = m.UploadTable(id, table(int(m.sessions[id].app[3]-'0')))
		case roll < 11:
			err = m.PhaseChange(pick(), fmt.Sprintf("ph%d", step))
		case roll < 14:
			states := []Liveness{LivenessLive, LivenessSuspect, LivenessQuarantined}
			err = m.SetLiveness(pick(), states[rng.Intn(3)], "fuzz")
		case roll < 16:
			id := pick()
			for i := 0; i < 5 && err == nil; i++ { // trips the cadence: same inputs, a cache hit
				err = m.Measure(id, 1+rng.Float64(), 1+rng.Float64())
			}
		case roll < 17:
			forced = alloc.SourceDegradedGreedy
			m.ForceDegradedSolves(1)
			err = m.Reallocate()
		case roll < 18:
			forced = alloc.SourceDegradedStale
			m.ForceDegradedSolves(1)
			h.fallback.fail = true
			err = m.Reallocate()
			h.fallback.fail = false
		default:
			err = m.Tick()
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if coalesced && rng.Intn(3) == 0 {
			if err := m.Tick(); err != nil {
				t.Fatalf("step %d: tick: %v", step, err)
			}
		}
		h.checkAggregates(step)

		rung := m.DegradedRung()
		switch {
		case forced == alloc.SourceDegradedStale && h.rec.solves > 0 && len(m.inputs) > 0:
			if rung != alloc.SourceDegradedStale {
				t.Fatalf("step %d: forced a stale epoch, ladder resolved %q", step, rung)
			}
			// Last-known-good held: nothing but park decisions may be pushed.
			for _, out := range h.pushed[pushedBefore:] {
				if out.Cores != 0 {
					t.Fatalf("step %d: stale epoch pushed %+v", step, out)
				}
			}
			rungs[rung]++
			continue
		case h.rec.solves == before:
			continue // no epoch ran (coalesced, or a no-op transition)
		case forced == alloc.SourceDegradedGreedy && rung != forced:
			t.Fatalf("step %d: forced a greedy epoch, ladder resolved %q", step, rung)
		}
		if pending, _ := m.PendingEpoch(); pending {
			// Events queued after the last solve: the solution is not about
			// the current session set yet.
			continue
		}
		rungs[rung]++
		h.checkAgainstSolution(step, rung)
	}

	records, err := telemetry.ReadJournal(bytes.NewReader(h.jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := check.CheckJournal(records); err != nil {
		t.Error(err)
	}
	if err := check.CheckJournalMatchesPushed(records, h.pushed); err != nil {
		t.Error(err)
	}
	if h.rec.deltas == 0 || h.rec.fulls == 0 || rungs[alloc.SourceDegradedGreedy] == 0 || rungs[alloc.SourceDegradedStale] == 0 {
		t.Fatalf("scenario too thin: %d delta solves, %d full, rungs %v, sources %v", h.rec.deltas, h.rec.fulls, rungs, h.rec.sources)
	}
	t.Logf("%d solves (%d delta, %d full), sources %v, rungs %v", h.rec.solves, h.rec.deltas, h.rec.fulls, h.rec.sources, rungs)
}

// churnScaleManager ramps n sessions (eight applications, four per core
// kind) onto a coalescing Manager over the sharded incremental solver — the
// churn-10k configuration in miniature. cadence is the solver's full-solve
// cadence (0 = its default).
func churnScaleManager(t *testing.T, n, cadence int) (*Manager, []*opoint.Table) {
	t.Helper()
	p := churnTestPlatform(t)
	solver, err := alloc.NewSharded(p, 1, 0,
		alloc.WithCache(alloc.DefaultCacheSize), alloc.WithIncremental(true), alloc.WithIncrementalCadence(cadence))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          solver,
		DisableExploration: true,
		Coalesce:           CoalescePolicy{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*opoint.Table, 8)
	for app := range tables {
		tables[app] = churnTestTable(t, p, fmt.Sprintf("app%d", app), app%2, 1+app/4)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%05d", i)
		if err := m.Register(id, tables[i%8].App, workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
		if err := m.UploadTable(id, tables[i%8]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return m, tables
}

// TestSteadyStateTickAllocationsDoNotScale is the scaling pin: the same
// ten-event tick — two departures, two arrivals with their uploads, four
// phase changes, then the flush — performs the same number of mallocs at
// 1 000 and at 4 000 sessions. Everything per-session the epoch needs is
// retained state; only what changed allocates.
func TestSteadyStateTickAllocationsDoNotScale(t *testing.T) {
	perTick := func(n int) float64 {
		// No cadence full solve in the window: a full solve builds (and the
		// solution cache keeps) a fresh solution, which is O(sessions) by
		// design and amortised over the cadence.
		m, tables := churnScaleManager(t, n, 1<<30)
		next := n
		oldest := 0
		tick := func() {
			for i := 0; i < 2; i++ {
				if err := m.Deregister(fmt.Sprintf("s%05d", oldest)); err != nil {
					t.Fatal(err)
				}
				oldest++
				id := fmt.Sprintf("s%05d", next)
				// The arrival takes the slot the departure left in its
				// application, so the population's mix stays fixed.
				tbl := tables[(oldest-1)%8]
				next++
				if err := m.Register(id, tbl.App, workload.Scalable, false); err != nil {
					t.Fatal(err)
				}
				if err := m.UploadTable(id, tbl); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				if err := m.PhaseChange(fmt.Sprintf("s%05d", oldest+17*(i+1)), "ph"); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
			if src := m.LastSolveSource(); src != alloc.SourceSharded {
				t.Fatalf("tick solved %q, want the sharded incremental path", src)
			}
		}
		for i := 0; i < 8; i++ {
			tick() // settle buffers, memo tables and the order slice
		}
		return testing.AllocsPerRun(40, tick)
	}
	small, large := perTick(1000), perTick(4000)
	t.Logf("mallocs per tick: %.1f at 1000 sessions, %.1f at 4000", small, large)
	if large > small+8 {
		t.Fatalf("mallocs per tick scale with the population: %.1f at 1000 sessions, %.1f at 4000", small, large)
	}
}

// TestRetainedDecisionsStayIntact pins decision immutability: harp.Server
// and the benchmark keep the Decisions OnDecision hands them, so nothing a
// pushed decision points to — grants, vector counts — may live in a buffer
// the pipeline reuses. Every decision is deep-copied at push time and
// compared with the retained original 200 epochs of churn later.
func TestRetainedDecisionsStayIntact(t *testing.T) {
	m, tables := churnScaleManager(t, 300, 0)
	type kept struct{ live, atPush Decision }
	var all []kept
	m.OnDecision(func(d Decision) {
		cp := d
		cp.Vector = d.Vector.Clone()
		cp.Grants = slices.Clone(d.Grants)
		all = append(all, kept{live: d, atPush: cp})
	})
	rng := rand.New(rand.NewSource(3))
	next, oldest := 300, 0
	for epoch := 0; epoch < 200; epoch++ {
		for ev := 0; ev < 6; ev++ {
			switch rng.Intn(3) {
			case 0:
				id := fmt.Sprintf("s%05d", next)
				tbl := tables[rng.Intn(8)]
				next++
				if err := m.Register(id, tbl.App, workload.Scalable, false); err != nil {
					t.Fatal(err)
				}
				if err := m.UploadTable(id, tbl); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := m.Deregister(fmt.Sprintf("s%05d", oldest)); err != nil {
					t.Fatal(err)
				}
				oldest++
			default:
				// A changed table re-solves — and re-pushes — every session
				// of the application.
				app := rng.Intn(8)
				tbl := churnTestTable(t, m.cfg.Platform, tables[app].App, app%2, 1+rng.Intn(3))
				if err := m.UploadTable(fmt.Sprintf("s%05d", next-1), tbl); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(all) < 1000 {
		t.Fatalf("only %d decisions pushed; the scenario retained too little", len(all))
	}
	for i, k := range all {
		if !reflect.DeepEqual(k.live, k.atPush) {
			t.Fatalf("decision %d (seq %d, %s) changed after it was pushed:\n at push %+v\n now     %+v",
				i, k.atPush.Seq, k.atPush.Instance, k.atPush, k.live)
		}
	}
}

// TestEndedSetIsBounded is the regression test for the departed-instance
// leak: clients with unique instance names (harpd keys sessions by PID) never
// come back to delete their entry, so the set must forget on its own — while
// a recent departure still counts as a reconnect.
func TestEndedSetIsBounded(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, err := NewManager(Config{
		Platform:           churnTestPlatform(t),
		DisableExploration: true,
		Coalesce:           CoalescePolicy{Enabled: true, MaxDirty: 1 << 30},
		Metrics:            mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		id := fmt.Sprintf("pid-%d", i)
		if err := m.Register(id, "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
		if err := m.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ended.len(); got > recentDepartures {
		t.Fatalf("%d departed instances remembered after 50k cycles, bound is %d", got, recentDepartures)
	}
	if got := len(m.ended.ring); got > recentDepartures {
		t.Fatalf("departure ring holds %d entries, bound is %d", got, recentDepartures)
	}
	if err := m.Register("pid-49999", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("pid-7", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if got := mt.Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects = %d, want 1: the recent departure resumes, the ancient one is new", got)
	}
}

func TestRecentSet(t *testing.T) {
	r := newRecentSet(2)
	r.reserve(3)
	for _, id := range []string{"a", "b", "c"} {
		r.add(id)
	}
	r.remove("b")
	r.add("d") // evicts a (oldest)
	if r.has("a") || r.has("b") || !r.has("c") || !r.has("d") {
		t.Fatalf("after eviction: %v", r.at)
	}
	r.add("b") // takes b's own stale slot; c survives
	r.add("e") // evicts c
	if r.has("c") || !r.has("d") || !r.has("b") || !r.has("e") || r.len() != 3 {
		t.Fatalf("after wrap: %v", r.at)
	}
}

// TestDecisionCompareAllocatesNothing pins the push path's two comparisons:
// the order-insensitive decision compare (positional mismatch included) and
// the re-park of an already parked session.
func TestDecisionCompareAllocatesNothing(t *testing.T) {
	p := churnTestPlatform(t)
	rv := platform.NewResourceVector(p)
	rv.Counts[0][0] = 3
	a := Decision{Vector: rv, Threads: 3, Grants: []alloc.CoreGrant{{Core: 0, Threads: 1}, {Core: 1, Threads: 1}, {Core: 2, Threads: 1}}}
	b := a
	b.Vector = rv.Clone()
	b.Grants = []alloc.CoreGrant{{Core: 2, Threads: 1}, {Core: 0, Threads: 1}, {Core: 1, Threads: 1}}
	c := b
	c.Grants = []alloc.CoreGrant{{Core: 2, Threads: 1}, {Core: 0, Threads: 1}, {Core: 0, Threads: 1}}
	if !sameDecision(&a, &b) || sameDecision(&a, &c) || sameDecision(&c, &a) {
		t.Fatal("order-insensitive grant compare is wrong")
	}
	if n := testing.AllocsPerRun(100, func() {
		if !sameDecision(&a, &b) || sameDecision(&a, &c) {
			t.Fatal("compare changed its mind")
		}
	}); n != 0 {
		t.Fatalf("sameDecision allocates %.0f objects per permuted compare, want 0", n)
	}

	m, err := NewManager(Config{Platform: p, DisableExploration: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("s", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.SetLiveness("s", LivenessQuarantined, "test"); err != nil {
		t.Fatal(err)
	}
	s := m.sessions["s"]
	seq := s.last.Seq
	if n := testing.AllocsPerRun(100, func() { m.pushParked(s) }); n != 0 {
		t.Fatalf("re-parking a parked session allocates %.0f objects, want 0", n)
	}
	if s.last.Seq != seq {
		t.Fatal("re-parking pushed a new decision")
	}
}

// TestPushPanicIsContained pins the per-epoch panic containment: a session
// whose decision path panics — here, the embedder's callback — is
// quarantined and parked, the walk resumes with the next session, and later
// epochs run clean. A session whose parked push panics too ends up holding
// no grants either way.
func TestPushPanicIsContained(t *testing.T) {
	p := churnTestPlatform(t)
	tracer := telemetry.NewTracer(0)
	m, err := NewManager(Config{Platform: p, DisableExploration: true, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Decision{}
	m.OnDecision(func(d Decision) {
		if d.Instance == "bad" && !d.Vector.IsZero() {
			panic("callback cannot place " + d.Instance)
		}
		if d.Instance == "worse" {
			panic("callback cannot even park " + d.Instance)
		}
		got[d.Instance] = d
	})
	for _, id := range []string{"a", "bad", "worse", "z"} {
		if err := m.Register(id, "app-"+id, workload.Scalable, false); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
		if err := m.UploadTable(id, churnTestTable(t, p, "app-"+id, 0, 1)); err != nil {
			t.Fatalf("UploadTable(%s): %v", id, err)
		}
	}
	for _, id := range []string{"bad", "worse"} {
		if l, _ := m.Liveness(id); l != LivenessQuarantined {
			t.Errorf("%s liveness = %v, want quarantined", id, l)
		}
	}
	if d := m.sessions["bad"].last; d == nil || !d.Vector.IsZero() || len(d.Grants) != 0 {
		t.Errorf("bad is not parked: %+v", d)
	}
	if d := m.sessions["worse"].last; d != nil && len(d.Grants) != 0 {
		t.Errorf("worse holds grants although even its park panicked: %+v", d)
	}
	for _, id := range []string{"a", "z"} {
		if d, ok := got[id]; !ok || len(d.Grants) == 0 {
			t.Errorf("%s got no allocation: the panic took the rest of the walk with it", id)
		}
	}
	panicked := 0
	for _, ev := range tracer.Events() {
		if ev.Kind == telemetry.EvSessionPanicked {
			panicked++
		}
	}
	if panicked != 2 {
		t.Errorf("%d EvSessionPanicked events, want 2", panicked)
	}
	if err := m.Reallocate(); err != nil {
		t.Fatalf("Reallocate after containment: %v", err)
	}
	if m.coresGranted != 2 {
		t.Errorf("coresGranted = %d, want 2 (a and z; the quarantined pair hold nothing)", m.coresGranted)
	}
}
