package harpsim

// Fleet chaos harness: drives an internal/cluster fleet — N machine-local
// managers under a coordinator — with seeded open-loop churn on one virtual
// clock, injecting faultsim machine-kill and coordinator-kill faults from a
// plan cursor. The event stream is a pure function of the seed, so two
// same-seed runs produce byte-identical cluster and per-machine journals;
// check.CheckFleet grades the placement invariants every tick, including
// mid-migration. RunCluster also integrates a deterministic fleet energy
// model (per-machine idle/sleep floors from the platform plus standing
// predicted power), which the Fig-style cluster experiment compares across
// dynamic bin-packing and static partitioning.

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/cluster"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// clientRetryAfter is how many consecutive unowned ticks a simulated
// client waits before re-registering with the fleet — the address-provider
// reconnect story at harness scale.
const clientRetryAfter = 2

// settleTicks is the quiet tail after the measured window: no churn and no
// new faults, just enough ticks for in-flight migrations and queued
// re-homes to land before the final ownership accounting. Energy and
// active-machine accounting stop at the measured window.
const settleTicks = 10

// ClusterTick converts a tick index into the virtual-clock instant at
// which the fleet harness delivers faults scheduled for that tick — the
// unit fault plans against RunCluster are written in.
func ClusterTick(n int) time.Duration { return time.Duration(n) * core.AdaptationTick }

// ClusterOptions configures one seeded fleet run.
type ClusterOptions struct {
	// Machines is the fleet size (0 selects 4).
	Machines int
	// Sessions is the target concurrent population (>= 1).
	Sessions int
	// Ticks is the measured run length in 50 ms virtual ticks.
	Ticks int
	// EventsPerTick is the Poisson mean of churn events per tick (0
	// selects 1).
	EventsPerTick float64
	// Seed drives every random choice.
	Seed int64
	// FleetBudgetW is the fleet power budget (0 disables enforcement).
	FleetBudgetW float64
	// Static selects the static-partitioning baseline (no bin-packing, no
	// migration) — the experiment's comparison arm.
	Static bool
	// Plan schedules machine-kill / coordinator-kill faults (nil = none).
	// Only cluster fault kinds are meaningful here.
	Plan *faultsim.Plan
	// Journal receives the cluster transition journal (nil disables).
	Journal io.Writer
	// MachineJournal supplies per-machine decision-journal writers (nil
	// disables).
	MachineJournal func(id string) io.Writer
	// Verify runs check.CheckFleet every tick (fleet-internal and from the
	// harness side) and fails the run on any violation.
	Verify bool
}

// ClusterResult reports one fleet run.
type ClusterResult struct {
	// Stats are the fleet's transition counters.
	Stats cluster.Stats
	// Health is the fleet's final graded health.
	Health cluster.Health
	// FinalSessions is the live client population at the end.
	FinalSessions int
	// FinalUnowned is how many live clients ended the run unowned (0 on a
	// healthy fleet with capacity).
	FinalUnowned int
	// MaxUnownedTicks is the longest any live client went without a
	// machine — the re-homing bound the chaos suites assert on.
	MaxUnownedTicks int
	// MaxFleetPowerW is the highest standing fleet power observed at any
	// tick (must never exceed the budget).
	MaxFleetPowerW float64
	// EnergyJ integrates the fleet energy model over the run.
	EnergyJ float64
	// ActiveMachineTicks counts (machine, tick) pairs with at least one
	// session — the consolidation signal.
	ActiveMachineTicks int
	// Ticks echoes the measured tick count.
	Ticks int
}

// RunCluster executes one seeded fleet run. See ClusterOptions.
func RunCluster(opts ClusterOptions) (*ClusterResult, error) {
	if opts.Machines <= 0 {
		opts.Machines = 4
	}
	if opts.Sessions < 1 {
		return nil, fmt.Errorf("harpsim: cluster with %d sessions", opts.Sessions)
	}
	if opts.Ticks < 1 {
		return nil, fmt.Errorf("harpsim: cluster with %d ticks", opts.Ticks)
	}
	if opts.EventsPerTick <= 0 {
		opts.EventsPerTick = 1
	}
	if opts.Plan != nil {
		if err := opts.Plan.Validate(); err != nil {
			return nil, err
		}
		for _, f := range opts.Plan.Faults {
			if !f.Kind.ClusterKind() {
				return nil, fmt.Errorf("harpsim: cluster plan contains non-cluster fault %s", f.Kind)
			}
		}
	}

	plat := ChurnPlatform(2, 8)
	var now time.Duration
	tracer := telemetry.NewTracer(16)
	tracer.SetClock(func() time.Duration { return now })

	fleet, err := cluster.New(cluster.Config{
		Machines:       opts.Machines,
		Platform:       plat,
		FleetBudgetW:   opts.FleetBudgetW,
		Static:         opts.Static,
		Verify:         opts.Verify,
		Tracer:         tracer,
		Journal:        opts.Journal,
		MachineJournal: opts.MachineJournal,
	})
	if err != nil {
		return nil, err
	}

	// Per-machine energy floors from the platform model: an active machine
	// pays its idle floor, a parked (empty) machine its sleep floor, a
	// dead machine nothing.
	idleW, sleepW := 0.0, 0.0
	for _, k := range plat.Kinds {
		idleW += k.IdleWatts * float64(k.Count)
		sleepW += k.SleepWatts * float64(k.Count)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	cursor := opts.Plan.Cursor()
	res := &ClusterResult{Ticks: opts.Ticks}
	live := make(map[string]cluster.SessionSpec)
	unowned := make(map[string]int)
	placed := make(map[string]bool)
	var liveOrder []string
	nextID := 0

	newSpec := func() cluster.SessionSpec {
		id := fmt.Sprintf("c%06d", nextID)
		app := fmt.Sprintf("cl-app-%d", nextID%(2*len(plat.Kinds)))
		nextID++
		return cluster.SessionSpec{
			Instance:   id,
			App:        app,
			Adaptivity: workload.Scalable,
			Table:      churnTable(plat, app),
		}
	}
	submit := func(spec cluster.SessionSpec) error {
		err := fleet.Submit(spec)
		switch err {
		case nil:
			live[spec.Instance] = spec
			liveOrder = append(liveOrder, spec.Instance)
		case cluster.ErrNoCoordinator:
			// Control plane briefly headless: the client retries later.
		default:
			return err
		}
		return nil
	}

	// Ramp to the target population before the measured phase.
	for len(live) < opts.Sessions {
		if err := submit(newSpec()); err != nil {
			return nil, err
		}
	}

	for tick := 0; tick < opts.Ticks+settleTicks; tick++ {
		measured := tick < opts.Ticks

		// Deliver due faults at the tick boundary.
		if measured {
			for _, f := range cursor.Due(now) {
				switch f.Kind {
				case faultsim.KindMachineKill:
					if err := fleet.KillMachine(f.Target); err != nil {
						return nil, err
					}
				case faultsim.KindCoordKill:
					fleet.KillCoordinator()
				}
			}
		}

		// Churn: Poisson event burst with a balanced arrival / departure /
		// phase mix. Arrivals gate at twice the target population so the
		// walk stays inside a capacity band the tests can size for.
		n := 0
		if measured {
			n = poisson(rng, opts.EventsPerTick)
		}
		for e := 0; e < n; e++ {
			r := rng.Float64()
			switch {
			case len(liveOrder) == 0 || (r < 0.35 && len(liveOrder) < 2*opts.Sessions):
				if err := submit(newSpec()); err != nil {
					return nil, err
				}
			case r < 0.70 && len(liveOrder) > opts.Sessions/2:
				i := rng.Intn(len(liveOrder))
				id := liveOrder[i]
				switch err := fleet.Deregister(id); err {
				case nil, cluster.ErrUnknownSession:
					// Unknown means the placement was lost with the dead
					// coordinator before it was ever shipped; the client
					// just goes away.
					liveOrder[i] = liveOrder[len(liveOrder)-1]
					liveOrder = liveOrder[:len(liveOrder)-1]
					delete(live, id)
					delete(unowned, id)
				case cluster.ErrNoCoordinator:
					// Exit blocked by the headless window; retried via churn.
				default:
					return nil, err
				}
			default:
				id := liveOrder[rng.Intn(len(liveOrder))]
				spec := live[id]
				spec.Phase = fmt.Sprintf("ph%d", tick%4)
				switch err := fleet.PhaseChange(id, spec.Phase); err {
				case nil:
					live[id] = spec
				case cluster.ErrUnknownSession, cluster.ErrNoCoordinator:
					// Lost or headless: the re-registration path below
					// carries the newest phase the client knows.
					live[id] = spec
				default:
					return nil, err
				}
			}
		}

		if err := fleet.Tick(); err != nil {
			return nil, fmt.Errorf("harpsim: cluster tick %d: %w", tick, err)
		}
		now += core.AdaptationTick

		// Clients that stayed unowned past the retry deadline re-register
		// (the address-provider reconnect story); the coordinator dedups
		// sessions it still knows. MaxUnownedTicks measures the re-home
		// bound, so it only counts sessions that were placed at least once
		// — initial queue wait under a full fleet is capacity, not failure.
		for _, id := range sortedKeys(live) {
			if fleet.Owner(id) != "" {
				placed[id] = true
				unowned[id] = 0
				continue
			}
			unowned[id]++
			if placed[id] && unowned[id] > res.MaxUnownedTicks {
				res.MaxUnownedTicks = unowned[id]
			}
			if unowned[id] >= clientRetryAfter {
				switch err := fleet.Submit(live[id]); err {
				case nil, cluster.ErrDuplicateSession, cluster.ErrNoCoordinator:
				default:
					return nil, err
				}
			}
		}

		// Grade invariants and integrate the energy model on the post-tick
		// view.
		view := fleet.View()
		if opts.Verify {
			if err := check.CheckFleet(view); err != nil {
				return nil, fmt.Errorf("harpsim: cluster tick %d: %w", tick, err)
			}
		}
		fleetPower := 0.0
		for i := range view.Machines {
			m := &view.Machines[i]
			fleetPower += m.StandingPowerW
			if !measured {
				continue
			}
			switch {
			case !m.Alive:
			case len(m.Sessions) > 0:
				res.EnergyJ += (idleW + m.StandingPowerW) * core.AdaptationTick.Seconds()
				res.ActiveMachineTicks++
			default:
				res.EnergyJ += sleepW * core.AdaptationTick.Seconds()
			}
		}
		if fleetPower > res.MaxFleetPowerW {
			res.MaxFleetPowerW = fleetPower
		}
	}

	if err := fleet.JournalErr(); err != nil {
		return nil, err
	}
	res.Stats = fleet.Stats()
	res.Health = fleet.Health()
	res.FinalSessions = len(live)
	for _, id := range sortedKeys(live) {
		if fleet.Owner(id) == "" {
			res.FinalUnowned++
		}
	}
	return res, nil
}

func sortedKeys(m map[string]cluster.SessionSpec) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
