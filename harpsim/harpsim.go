// Package harpsim composes the HARP middleware with the simulated
// heterogeneous machine into runnable scenarios: pick a platform, a set of
// applications and a management policy, and obtain makespan and energy — the
// measurements behind every figure of the paper's evaluation. It is the
// public entry point for experiments, benchmarks and examples.
package harpsim

import (
	"errors"
	"fmt"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Policy selects how the machine is managed.
type Policy int

// Policies evaluated in the paper (§6.3, §6.4).
const (
	// PolicyCFS is the Linux baseline on Intel.
	PolicyCFS Policy = iota + 1
	// PolicyEAS is the Linux Energy-Aware Scheduler baseline on the Odroid.
	PolicyEAS
	// PolicyITD is the Intel-Thread-Director-guided allocator baseline.
	PolicyITD
	// PolicyHARP is HARP with online exploration.
	PolicyHARP
	// PolicyHARPOffline is HARP driven purely by pre-generated operating
	// points (no online exploration) — the only HARP mode on the Odroid.
	PolicyHARPOffline
	// PolicyHARPNoScaling is the ablation: HARP restricts applications to
	// their allocations but never adapts their parallelisation degree.
	PolicyHARPNoScaling
	// PolicyHARPOverhead is the §6.6 overhead configuration: full
	// monitoring, exploration and communication, but libharp drops the
	// activation messages, leaving applications scheduled like CFS.
	PolicyHARPOverhead
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyCFS:
		return "cfs"
	case PolicyEAS:
		return "eas"
	case PolicyITD:
		return "itd"
	case PolicyHARP:
		return "harp"
	case PolicyHARPOffline:
		return "harp-offline"
	case PolicyHARPNoScaling:
		return "harp-noscaling"
	case PolicyHARPOverhead:
		return "harp-overhead"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// IsHARP reports whether the policy runs the HARP resource manager.
func (p Policy) IsHARP() bool {
	switch p {
	case PolicyHARP, PolicyHARPOffline, PolicyHARPNoScaling, PolicyHARPOverhead:
		return true
	default:
		return false
	}
}

// Scenario is one evaluation workload: a set of applications started
// together on a platform (the paper's single- and multi-application
// scenarios).
type Scenario struct {
	// Name labels the scenario, e.g. "ep" or "is+lu".
	Name string
	// Platform is the machine to simulate.
	Platform *platform.Platform
	// Apps are the application profiles, all started at t = 0.
	Apps []*workload.Profile
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if s.Platform == nil {
		return errors.New("harpsim: scenario without platform")
	}
	if err := s.Platform.Validate(); err != nil {
		return err
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("harpsim: scenario %q without applications", s.Name)
	}
	for _, p := range s.Apps {
		if p == nil {
			return fmt.Errorf("harpsim: scenario %q contains a nil profile", s.Name)
		}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// registrationDelay models the libharp startup/registration cost before an
// application is managed.
const registrationDelay = 150 * time.Millisecond

// taxBase and taxPerApp model HARP's management overhead as a fraction of
// useful progress per managed application: overall tax =
// taxBase + taxPerApp·(managed−1), reproducing §6.6's < 1 % single-app /
// ≈ 2.5 % multi-app overhead.
const (
	taxBase   = 0.004
	taxPerApp = 0.005
)

// Options tunes a run. The zero value selects the paper's defaults; the
// stable-stage reallocation cadence is core.DefaultReallocEvery (the
// paper's 100 measurements).
type Options struct {
	// Policy selects the management policy (required).
	Policy Policy
	// OfflineTables supplies pre-generated operating points per application
	// name (used by the HARP policies; mandatory for PolicyHARPOffline).
	OfflineTables map[string]*opoint.Table
	// Governor is the DVFS governor model; zero selects powersave.
	Governor sim.Governor
	// Horizon bounds the simulation; zero selects 30 virtual minutes.
	Horizon time.Duration
	// Seed drives measurement noise.
	Seed int64
	// MeasureEvery is the monitoring cadence; zero selects 50 ms (§5.3).
	MeasureEvery time.Duration
	// Explore tunes runtime exploration.
	Explore explore.Config
	// RecordTimeline captures every applied allocation decision in
	// Result.Timeline — the raw material for allocation Gantt charts and
	// for debugging management behaviour.
	RecordTimeline bool
	// Tracer receives the run's structured adaptation-loop events (HARP
	// policies only; nil disables). Its clock is rebound to the machine's
	// virtual time, so event streams are deterministic and replayable;
	// Tracer.WriteChromeTrace renders the run for Perfetto.
	Tracer *telemetry.Tracer
	// Journal records one JSONL epoch per decision batch (nil disables).
	Journal *telemetry.Journal
	// Metrics receives the adaptation-loop instruments (nil disables). The
	// allocation-latency histogram stays empty: wall time would measure the
	// host, not the simulated system.
	Metrics *telemetry.Metrics
	// Energy attaches an energy ledger to the simulated RM (HARP policies
	// only; nil disables). Its clock is rebound to the machine's virtual
	// time, so joule integrals are deterministic; the caller reads totals
	// from the ledger after Run returns. An rm-crash restart reuses the
	// same ledger, re-seeded from the recovered state like harpd would.
	Energy *telemetry.EnergyLedger
	// Liveness sets the RM's silence deadlines on the simulator's virtual
	// clock: a session whose measurements stop flowing is suspected,
	// quarantined (cores reclaimed, learning frozen) and finally reaped.
	// The zero value disables liveness tracking.
	Liveness core.LivenessPolicy
	// Faults schedules deterministic client failures (crashes, hangs,
	// dropouts) against the managed instances — and, with target
	// faultsim.RMTarget, crashes of the resource manager itself. Same plan,
	// same seed, same scenario → byte-identical decision journals. Nil
	// disables injection.
	Faults *faultsim.Plan
	// StateDir makes the simulated RM durable (HARP policies only): learned
	// state is recovered from the directory at start, mutations are
	// WAL-logged, a clean run ends with a snapshot — and an injected
	// rm-crash fault restarts the RM warm from disk mid-run, exactly like
	// harpd after kill -9. Empty disables persistence; rm-crash then
	// restarts the RM cold.
	StateDir string
	// AllocCacheSize sizes the RM's fingerprinted solution cache (0 =
	// default, negative = off). The cache is decision-transparent: the same
	// scenario and seed produce byte-identical journals with it on or off
	// except for the lambda_iters/solve_source bookkeeping fields.
	AllocCacheSize int
	// AllocWarmStart seeds each solve from the previous epoch's λ vector.
	AllocWarmStart bool
}

// TimelineEvent is one applied allocation decision.
type TimelineEvent struct {
	// AtSec is the virtual time the decision was applied.
	AtSec float64
	// Instance is the application instance affected.
	Instance string
	// VectorKey is the activated extended resource vector.
	VectorKey string
	// Threads is the applied parallelisation degree (0 = unchanged).
	Threads int
	// Cores lists the granted core IDs (empty for parked decisions and for
	// the session-clearing events recorded on reap, deregistration and
	// exit — an empty grant ends the instance's standing allocation).
	Cores []int
	// Exploring marks exploration configurations.
	Exploring bool
	// CoAllocated marks time-shared allocations.
	CoAllocated bool
}

func (o Options) withDefaults() Options {
	if o.Horizon == 0 {
		o.Horizon = 30 * time.Minute
	}
	if o.MeasureEvery == 0 {
		o.MeasureEvery = 50 * time.Millisecond
	}
	if o.Governor == 0 {
		o.Governor = sim.GovernorPowersave
	}
	return o
}

// AppResult is one application's outcome.
type AppResult struct {
	// TimeSec is the application's own execution time.
	TimeSec float64
	// DynEnergyJ is the application's ground-truth dynamic energy.
	DynEnergyJ float64
	// AttributedEnergyJ is the energy HARP's monitor attributed to the
	// application (0 for baseline policies).
	AttributedEnergyJ float64
}

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario and Policy echo the inputs.
	Scenario string
	Policy   Policy
	// MakespanSec is the completion time of the last application.
	MakespanSec float64
	// EnergyJ is the total package energy over the run.
	EnergyJ float64
	// Apps holds per-application results keyed by instance name.
	Apps map[string]AppResult
	// StableAfterSec is when every application reached the stable stage
	// (−1 if not applicable or never reached).
	StableAfterSec float64
	// Timeline holds the applied decisions when Options.RecordTimeline is
	// set (HARP policies only).
	Timeline []TimelineEvent
	// RMRestarts counts injected rm-crash faults the RM recovered from.
	RMRestarts int
}

// Snapshot captures the learning state at one instant (Fig. 8 snapshots the
// operating-point tables every 5 s).
type Snapshot struct {
	// AtSec is the virtual time of the snapshot.
	AtSec float64
	// AllStable reports whether every application had reached the stable
	// stage.
	AllStable bool
	// Tables are deep copies of the per-application operating-point tables.
	Tables map[string]*opoint.Table
}

// OfflineDSETables runs the closed-form design-space exploration for each
// profile: the exhaustive sweep a vendor would ship as application
// description files (§3.2.1). The allocator Pareto-filters, so full tables
// are fine.
func OfflineDSETables(plat *platform.Platform, profiles []*workload.Profile) map[string]*opoint.Table {
	return OfflineDSETablesParallel(plat, profiles, 0)
}

// OfflineDSETablesParallel is OfflineDSETables with an explicit parallelism
// bound (0 = one worker per CPU, 1 = sequential). Each profile's design-space
// exploration is an independent deterministic unit, so the tables are
// identical at any parallelism level.
func OfflineDSETablesParallel(plat *platform.Platform, profiles []*workload.Profile, parallelism int) map[string]*opoint.Table {
	tables, err := parallel.Map(parallelism, len(profiles), func(i int) (*opoint.Table, error) {
		prof := profiles[i]
		tbl := &opoint.Table{App: prof.Name, Platform: plat.Name}
		for _, rv := range platform.EnumerateVectors(plat, 0) {
			ev := workload.EvaluateVector(plat, prof, rv)
			tbl.Upsert(opoint.OperatingPoint{
				Vector:   rv,
				Utility:  ev.Utility,
				Power:    ev.PowerWatts,
				Measured: true,
			})
		}
		return tbl, nil
	})
	if err != nil {
		// The unit function never returns an error; only a worker panic can
		// land here, and that would have crashed the sequential loop too.
		panic(err)
	}
	out := make(map[string]*opoint.Table, len(profiles))
	for i, prof := range profiles {
		out[prof.Name] = tables[i]
	}
	return out
}
