package main

import (
	"fmt"
	"math/rand"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

const (
	churnEventsPerTick = 10
	churnApps          = 16 // four per core kind, as harpsim.RunChurn
	// churnPregenTicks is how many ticks of events set-up generates ahead, so
	// the measured phase allocates nothing on the driver's side; more are
	// generated on demand if a run outlasts them.
	churnPregenTicks = 6000
	// churnCheckEvery samples the internal/check invariants.
	churnCheckEvery = 64
)

// churn10k drives an in-process core.Manager — coalesced epochs, incremental
// and sharded solving — with harpsim.RunChurn's arrival process against a
// ramped population, one adaptation tick per operation. No sockets, no
// codec: the epoch pipeline and the solver do all the work.
type churn10k struct {
	env    runEnv
	plat   *platform.Platform
	mgr    *core.Manager
	tables map[string]*opoint.Table
	stream *churnStream
	ticks  [][]churnEvent
	appOf  map[string]string
	// standing is the latest decision per session, kept by the OnDecision
	// callback — the embedding layer's job in a real deployment.
	standing map[string]core.Decision
	pushes   int
	events   int

	solver  *tracedAllocator   // traced run only
	metrics *telemetry.Metrics // traced run only
}

func newChurn10k(env runEnv) driver {
	return &churn10k{env: env, plat: harpsim.ChurnPlatform(4, 8)}
}

func (w *churn10k) sut() sut              { return selfSUT{} }
func (w *churn10k) cpuWholeSegment() bool { return false }
func (w *churn10k) teardown()             { w.mgr = nil }

func (w *churn10k) setup(m *meter) error {
	sessions := w.env.pick(10000, 400)
	var ramp []churnEvent
	if err := m.time("setup.generate", func() error {
		rng := rand.New(rand.NewSource(w.env.seed))
		w.tables = churnTables(w.plat, churnApps, rng)
		w.stream = newChurnStream(w.env.seed+1, sessions, churnApps)
		ramp = w.stream.ramp()
		for i := 0; i < w.env.pick(churnPregenTicks, 64); i++ {
			w.ticks = append(w.ticks, w.stream.nextTick(churnEventsPerTick))
		}
		w.appOf = make(map[string]string, 2*sessions)
		w.standing = make(map[string]core.Decision, 2*sessions)
		return nil
	}); err != nil {
		return err
	}
	if err := m.time("setup.manager", func() error {
		cfg := core.Config{
			Platform:           w.plat,
			DisableExploration: true,
			Coalesce:           core.CoalescePolicy{Enabled: true},
			AllocIncremental:   true,
			ShardedAlloc:       true,
			ShardParallelism:   2,
		}
		if w.env.tr != nil {
			// The traced run builds the same solver core.NewManager would and
			// puts the timing seam in front of it; tracer and metrics feed the
			// existing harp_epoch_phase_seconds histograms.
			w.metrics = telemetry.NewMetrics(telemetry.NewRegistry())
			cfg.Tracer = telemetry.NewTracer(0)
			cfg.Metrics = w.metrics
			inner, err := alloc.NewSharded(w.plat, cfg.ShardParallelism, 0,
				alloc.WithMetrics(w.metrics), alloc.WithCache(alloc.DefaultCacheSize),
				alloc.WithWarmStart(false), alloc.WithIncremental(true))
			if err != nil {
				return err
			}
			w.solver = newTracedAllocator(inner, w.env.tr)
			cfg.Allocator = w.solver
		}
		var err error
		if w.mgr, err = core.NewManager(cfg); err != nil {
			return err
		}
		w.mgr.OnDecision(func(d core.Decision) {
			w.standing[d.Instance] = d
			w.pushes++
		})
		return nil
	}); err != nil {
		return err
	}
	if err := m.time("setup.ramp", func() error {
		if err := w.apply(ramp); err != nil {
			return err
		}
		return w.mgr.Tick()
	}); err != nil {
		return err
	}
	if err := m.time("setup.warmup", func() error {
		for i := 0; i < w.env.pick(50, 4); i++ {
			if err := w.tick(); err != nil {
				return fmt.Errorf("warm-up tick %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	w.pushes, w.events = 0, 0
	return nil
}

// apply drives one batch of events through the manager's public calls.
func (w *churn10k) apply(evs []churnEvent) error {
	tr := w.env.tr
	for _, ev := range evs {
		switch ev.kind {
		case evArrive:
			end := tr.begin("core.Register")
			err := w.mgr.Register(ev.id, ev.app, workload.Scalable, false)
			end()
			if err != nil {
				return fmt.Errorf("register %s: %w", ev.id, err)
			}
			w.appOf[ev.id] = ev.app
			end = tr.begin("core.UploadTable")
			err = w.mgr.UploadTable(ev.id, w.tables[ev.app])
			end()
			if err != nil {
				return fmt.Errorf("upload %s: %w", ev.id, err)
			}
			w.events += 2
		case evDepart:
			end := tr.begin("core.Deregister")
			err := w.mgr.Deregister(ev.id)
			end()
			if err != nil {
				return fmt.Errorf("deregister %s: %w", ev.id, err)
			}
			delete(w.appOf, ev.id)
			delete(w.standing, ev.id)
			w.events++
		case evPhase:
			end := tr.begin("core.PhaseChange")
			err := w.mgr.PhaseChange(ev.id, ev.phase)
			end()
			if err != nil {
				return fmt.Errorf("phase change %s: %w", ev.id, err)
			}
			w.events++
		}
	}
	return nil
}

// tick is one adaptation tick: its events, then the flush.
func (w *churn10k) tick() error {
	if len(w.ticks) == 0 {
		w.ticks = append(w.ticks, w.stream.nextTick(churnEventsPerTick))
	}
	evs := w.ticks[0]
	w.ticks = w.ticks[1:]
	if err := w.apply(evs); err != nil {
		return err
	}
	end := w.env.tr.begin("core.Tick")
	err := w.mgr.Tick()
	end()
	return err
}

func (w *churn10k) op(i int, m *meter) error {
	if err := m.time("op.churn-10k", w.tick); err != nil {
		return errFatal{err} // the event stream assumes every event applied
	}
	if msg := w.mgr.LastEpochError(); msg != "" {
		return fmt.Errorf("degraded epoch: %s", msg)
	}
	if i%churnCheckEvery == churnCheckEvery-1 {
		if err := w.checkStanding(); err != nil {
			return err
		}
	}
	return nil
}

// standingSolve lists, in the manager's solve order, every non-parked
// session's input and standing decision.
func (w *churn10k) standingSolve() (inputs []alloc.AppInput, allocs []alloc.Allocation, parked int, err error) {
	for _, info := range w.mgr.Sessions() {
		d, ok := w.standing[info.Instance]
		if !ok {
			return nil, nil, 0, fmt.Errorf("session %s has no standing decision", info.Instance)
		}
		if d.Vector.IsZero() {
			parked++
			continue
		}
		tbl := w.tables[w.appOf[info.Instance]]
		pt, ok := tbl.Lookup(d.Vector)
		if !ok {
			return nil, nil, 0, fmt.Errorf("session %s stands on %s, which is not in its table", info.Instance, d.Vector)
		}
		inputs = append(inputs, alloc.AppInput{ID: info.Instance, Table: tbl})
		allocs = append(allocs, alloc.Allocation{ID: info.Instance, Point: pt, Grants: d.Grants, CoAllocated: d.CoAllocated})
	}
	return inputs, allocs, parked, nil
}

// checkStanding runs the internal/check structural invariants over the
// standing decisions of the whole population.
func (w *churn10k) checkStanding() error {
	inputs, allocs, _, err := w.standingSolve()
	if err != nil {
		return err
	}
	return check.CheckAllocations(w.plat, inputs, allocs)
}

func (w *churn10k) finish() (finals, error) {
	f := finals{layer: map[string]float64{}}
	inputs, allocs, parked, err := w.standingSolve()
	if err != nil {
		return f, err
	}
	if err := check.CheckAllocations(w.plat, inputs, allocs); err != nil {
		return f, err
	}
	f.energyX = costRatio(w.plat, inputs, allocs)
	f.layer["core.parked_sessions"] = float64(parked)
	f.layer["core.degraded_epochs"] = 0 // a degraded epoch fails its op above
	if w.solver != nil {
		st := w.solver.snapshot()
		for k, v := range solverLayer(st) {
			f.layer[k] = v
		}
		if st.solves > 0 {
			f.layer["core.events_per_epoch"] = float64(w.events) / float64(st.solves)
			f.layer["core.decisions_per_epoch"] = float64(w.pushes) / float64(st.solves)
		}
		for phase, name := range map[string]string{
			telemetry.PhaseSnapshot: "core.snapshot_phase_ms",
			telemetry.PhasePush:     "core.push_phase_ms",
			telemetry.PhaseJournal:  "core.journal_phase_ms",
		} {
			if h := w.metrics.EpochPhase.With(phase); h.Count() > 0 {
				f.layer[name] = 1e3 * h.Sum() / float64(h.Count())
			}
		}
		for _, rung := range []string{alloc.SourceDegradedGreedy, alloc.SourceDegradedStale, alloc.SourceFrozen} {
			f.layer["core.degraded_epochs"] += float64(w.metrics.EpochDegraded.With(rung).Value())
		}
	}
	return f, nil
}
