package harpsim

// Open-loop churn driver for coalesced epochs, incremental re-solves and
// sharded solving (ISSUE 9). Unlike Run, which simulates application
// execution on the virtual machine, RunChurn drives a core.Manager directly
// with a seeded stream of mutating events — Poisson session arrivals,
// exponential-ish departures, table uploads and phase changes — on a virtual
// 50 ms tick, and counts the epochs the manager actually solves. It reads no
// wall clock: the event stream is a pure function of the seed, so two
// same-seed runs produce byte-identical decision journals; sampled epochs are
// differentially verified against check.CheckAllocations through an
// instrumented allocator wrapper. Epoch latency at scale is the repository
// benchmark's to measure (churn-10k in benchmark/README.md).

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// ChurnOptions configures one open-loop churn run on ChurnPlatform(4, 8) —
// four core kinds, so sharding forms real domains.
type ChurnOptions struct {
	// Sessions is the target concurrent session population (ramped up
	// before the measured phase).
	Sessions int
	// Ticks is how many 50 ms adaptation ticks the measured phase runs.
	Ticks int
	// EventsPerTick is the Poisson mean of mutating events per tick.
	EventsPerTick float64
	// Seed drives every random choice; same seed, same event stream, same
	// journal bytes.
	Seed int64
	// Coalesce is the manager's coalescing policy (zero = every mutating
	// event solves inline, so epochs track events one-for-one).
	Coalesce core.CoalescePolicy
	// Sharded solves kind-footprint domains in parallel, one worker per CPU.
	Sharded bool
	// Incremental enables the allocator's incremental re-solve path.
	Incremental bool
	// Journal receives the decision journal (nil disables); the same-seed
	// tests compare its bytes across runs.
	Journal io.Writer
	// VerifyEvery differentially verifies every n-th solved epoch against
	// check.CheckAllocations (0 disables).
	VerifyEvery int
}

// ChurnResult reports one churn run.
type ChurnResult struct {
	// Epochs is how many solves actually ran; Events is how many mutating
	// events were driven. Coalescing makes Epochs << Events.
	Epochs int
	Events int
	// PeakSessions / FinalSessions describe the population.
	PeakSessions  int
	FinalSessions int
	// SolveSources counts epochs by Stats.Source (cold, cached,
	// incremental, sharded, ...).
	SolveSources map[string]int
	// Verified counts epochs that passed the CheckAllocations oracle.
	Verified int
}

// ChurnPlatform builds a synthetic multi-kind machine for churn runs: kinds
// core kinds with coresPer cores each, no SMT. Several kinds matter — the
// sharded allocator's domains follow kind footprints.
func ChurnPlatform(kinds, coresPer int) *platform.Platform {
	p := &platform.Platform{
		Name:            fmt.Sprintf("churn-%dx%d", kinds, coresPer),
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
	}
	for k := 0; k < kinds; k++ {
		p.Kinds = append(p.Kinds, platform.CoreKind{
			Name:        fmt.Sprintf("K%d", k),
			Count:       coresPer,
			SMT:         1,
			MaxFreqGHz:  3 - 0.2*float64(k),
			MinFreqGHz:  0.5,
			IPC:         2 - 0.1*float64(k),
			ActiveWatts: 2 - 0.2*float64(k),
			IdleWatts:   0.2,
			SleepWatts:  0.02,
		})
	}
	if err := p.Validate(); err != nil {
		panic(err) // static construction; cannot fail for kinds,coresPer >= 1
	}
	return p
}

// verifyingAllocator wraps the solve so the harness can count epochs,
// aggregate sources and hand sampled (inputs, allocs) pairs to the oracle.
type verifyingAllocator struct {
	inner      core.Allocator
	solves     int
	lastInputs []alloc.AppInput
	lastAllocs []alloc.Allocation
	lastSource string
}

func (v *verifyingAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	allocs, stats, err := v.inner.AllocateWithStats(apps)
	if err != nil {
		return allocs, stats, err
	}
	v.solves++
	v.lastInputs = apps
	v.lastAllocs = allocs
	v.lastSource = stats.Source
	return allocs, stats, nil
}

// RunChurn executes one seeded churn run. See ChurnOptions.
func RunChurn(opts ChurnOptions) (*ChurnResult, error) {
	plat := ChurnPlatform(4, 8)
	if opts.Sessions < 1 {
		return nil, fmt.Errorf("harpsim: churn with %d sessions", opts.Sessions)
	}
	if opts.Ticks < 1 {
		return nil, fmt.Errorf("harpsim: churn with %d ticks", opts.Ticks)
	}
	if opts.EventsPerTick <= 0 {
		opts.EventsPerTick = 1
	}

	// The virtual clock: the tracer (and through it the journal's AtSec
	// stamps) sees simulated time only, so journal bytes cannot depend on
	// host speed.
	var now time.Duration
	tracer := telemetry.NewTracer(16)
	tracer.SetClock(func() time.Duration { return now })

	allocOpts := []alloc.Option{
		alloc.WithCache(alloc.DefaultCacheSize),
		alloc.WithIncremental(opts.Incremental),
	}
	var inner core.Allocator
	var err error
	if opts.Sharded {
		inner, err = alloc.NewSharded(plat, 0, 0, allocOpts...)
	} else {
		inner, err = alloc.New(plat, allocOpts...)
	}
	if err != nil {
		return nil, err
	}
	verifier := &verifyingAllocator{inner: inner}

	var journal *telemetry.Journal
	if opts.Journal != nil {
		journal = telemetry.NewJournal(opts.Journal)
	}
	mgr, err := core.NewManager(core.Config{
		Platform:           plat,
		Allocator:          verifier,
		DisableExploration: true,
		Coalesce:           opts.Coalesce,
		Tracer:             tracer,
		Journal:            journal,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	res := &ChurnResult{SolveSources: make(map[string]int)}
	var live []string
	nextID := 0
	verified := 0

	// counted wraps one manager call, counting the epochs solved inside it and
	// running the sampled oracle check.
	counted := func(fn func() error) error {
		before := verifier.solves
		err := fn()
		if verifier.solves > before {
			res.Epochs += verifier.solves - before
			res.SolveSources[sourceLabel(verifier.lastSource)]++
			if opts.VerifyEvery > 0 && verifier.solves%opts.VerifyEvery == 0 {
				if cerr := check.CheckAllocations(plat, verifier.lastInputs, verifier.lastAllocs); cerr != nil {
					return fmt.Errorf("harpsim: churn epoch %d failed oracle: %w", verifier.solves, cerr)
				}
				verified++
			}
		}
		return err
	}

	register := func() error {
		id := fmt.Sprintf("s%06d", nextID)
		app := fmt.Sprintf("churn-app-%d", nextID%(4*len(plat.Kinds)))
		nextID++
		if err := counted(func() error {
			return mgr.Register(id, app, workload.Scalable, false)
		}); err != nil {
			return err
		}
		tbl := churnTable(plat, app)
		if err := counted(func() error { return mgr.UploadTable(id, tbl) }); err != nil {
			return err
		}
		live = append(live, id)
		res.Events += 2
		return nil
	}

	// Ramp: build the target population. With coalescing enabled this whole
	// storm lands in one pending epoch.
	for len(live) < opts.Sessions {
		if err := register(); err != nil {
			return nil, err
		}
	}
	if err := counted(mgr.Tick); err != nil {
		return nil, err
	}
	now += core.AdaptationTick

	// Measured phase: Poisson event bursts per tick, population held around
	// the target by biasing arrivals vs departures.
	for tick := 0; tick < opts.Ticks; tick++ {
		n := poisson(rng, opts.EventsPerTick)
		for e := 0; e < n; e++ {
			r := rng.Float64()
			switch {
			case r < 0.35 || len(live) == 0:
				if err := register(); err != nil {
					return nil, err
				}
			case r < 0.70 && len(live) > opts.Sessions/2:
				i := rng.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := counted(func() error { return mgr.Deregister(id) }); err != nil {
					return nil, err
				}
				res.Events++
			default:
				id := live[rng.Intn(len(live))]
				if err := counted(func() error { return mgr.PhaseChange(id, fmt.Sprintf("ph%d", tick%4)) }); err != nil {
					return nil, err
				}
				res.Events++
			}
		}
		if len(live) > res.PeakSessions {
			res.PeakSessions = len(live)
		}
		if err := counted(mgr.Tick); err != nil {
			return nil, err
		}
		now += core.AdaptationTick
	}
	if err := counted(mgr.Flush); err != nil {
		return nil, err
	}

	res.FinalSessions = len(live)
	res.Verified = verified
	return res, nil
}

func sourceLabel(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// churnTable builds a small synthetic operating-point table whose vectors
// live entirely on one core kind (chosen by app identity), so kind
// footprints partition the population into sharding domains. Utilities vary
// per app so tables — and hence fingerprints — differ; the content is a pure
// function of the app name, because the manager shares one explorer table
// per application and a re-registration that uploaded different content
// would rewrite it for every live session of that app.
func churnTable(plat *platform.Platform, app string) *opoint.Table {
	kind := hashString(app) % len(plat.Kinds)
	t := &opoint.Table{App: app, Platform: plat.Name}
	base := 4 + float64(hashString(app)%7)*0.25
	for cores := 1; cores <= 2; cores++ {
		rv := platform.NewResourceVector(plat)
		rv.Counts[kind][0] = cores
		t.Upsert(opoint.OperatingPoint{
			Vector:   rv,
			Utility:  base * float64(cores) * 0.8,
			Power:    1.5 * float64(cores),
			Measured: true,
		})
	}
	return t
}

func hashString(s string) int {
	h := 0
	for i := 0; i < len(s); i++ {
		h = h*31 + int(s[i])
	}
	if h < 0 {
		h = -h
	}
	return h
}

// poisson samples a Poisson variate by Knuth's product method — fine for the
// small per-tick means the harness uses.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
