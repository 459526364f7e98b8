package harpsim

import (
	"fmt"
	"sort"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/monitor"
	"github.com/harp-rm/harp/internal/sched"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Run executes one scenario under the selected policy and returns its
// measurements.
func Run(sc Scenario, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Liveness.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}

	machine, err := newMachine(sc, opts)
	if err != nil {
		return nil, err
	}
	var harness *harpHarness
	if opts.Policy.IsHARP() {
		harness, err = attachHARP(machine, sc, opts)
		if err != nil {
			return nil, err
		}
	}

	result := &Result{
		Scenario:       sc.Name,
		Policy:         opts.Policy,
		Apps:           make(map[string]AppResult, len(sc.Apps)),
		StableAfterSec: -1,
	}
	machine.OnProcExit(func(p *sim.Proc) {
		c := p.Counters()
		ar := AppResult{
			TimeSec:    (p.FinishedAt() - p.StartedAt()).Seconds(),
			DynEnergyJ: c.DynEnergyJ,
		}
		if harness != nil {
			ar.AttributedEnergyJ = harness.attributedEnergy(p)
		}
		result.Apps[p.Name()] = ar
		if p.FinishedAt().Seconds() > result.MakespanSec {
			result.MakespanSec = p.FinishedAt().Seconds()
		}
	})

	if err := startApps(machine, sc.Apps); err != nil {
		if harness != nil {
			harness.abandonStore()
		}
		return nil, err
	}
	if err := machine.RunUntilIdle(runHorizon); err != nil {
		if harness != nil {
			harness.abandonStore()
		}
		return nil, fmt.Errorf("harpsim: scenario %s under %s: %w", sc.Name, opts.Policy, err)
	}

	result.EnergyJ = machine.Energy().PackageJ
	if harness != nil {
		result.StableAfterSec = harness.stableAtSec
		result.Timeline = harness.timeline
		result.RMRestarts = harness.rmRestarts
		if err := harness.shutdownStore(); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// newMachine builds the simulator with the policy's OS-level scheduler.
func newMachine(sc Scenario, opts Options) (*sim.Machine, error) {
	var scheduler sim.Scheduler
	switch opts.Policy {
	case PolicyCFS:
		scheduler = sched.CFS{}
	case PolicyEAS:
		scheduler = sched.EAS{}
	case PolicyITD:
		scheduler = sched.ITD{Platform: sc.Platform}
	case PolicyHARP, PolicyHARPOffline, PolicyHARPNoScaling, PolicyHARPOverhead:
		// HARP works alongside the regular OS scheduler, restricting
		// applications via affinity masks (§4.3).
		scheduler = sched.CFS{}
	default:
		return nil, fmt.Errorf("harpsim: unknown policy %d", int(opts.Policy))
	}
	return sim.New(sc.Platform, scheduler, sim.WithGovernor(opts.Governor))
}

// startApps launches every profile with a unique instance name.
func startApps(machine *sim.Machine, apps []*workload.Profile) error {
	seen := make(map[string]int, len(apps))
	for _, prof := range apps {
		seen[prof.Name]++
		instance := prof.Name
		if seen[prof.Name] > 1 {
			instance = fmt.Sprintf("%s#%d", prof.Name, seen[prof.Name])
		}
		if _, err := machine.Start(prof, instance); err != nil {
			return err
		}
	}
	return nil
}

// harpHarness wires the HARP resource manager and monitor into a machine:
// it plays the role of libharp (registration, decision application, utility
// reporting) for every simulated application.
type harpHarness struct {
	machine *sim.Machine
	mgr     *core.Manager
	mon     *monitor.Monitor
	opts    Options

	coreToHW [][]sim.HWThread
	managed  map[string]*sim.Proc // instance → proc
	energyAt map[string]float64   // attributed energy of exited procs

	// instOrder caches the sorted instance names measureTick iterates every
	// 50 ms tick; instDirty is set whenever the managed set changes.
	instOrder []string
	instDirty bool

	stableAtSec float64
	timeline    []TimelineEvent

	// Resilience state, all on the machine's virtual clock. sessionUp mirrors
	// whether the instance currently holds an RM session (false between a
	// reap and a reconnect); lastSeen is the virtual time of the last
	// measurement fed to the RM; muted holds the active fault per victim.
	liveness  core.LivenessPolicy
	faults    *faultsim.Cursor
	sessionUp map[string]bool
	lastSeen  map[string]time.Duration
	muted     map[string]*muteState

	// repeat-mode state (LearnTables)
	repeat       bool
	repeatUntil  time.Duration
	restartCount map[string]int

	// Durable-RM state: coreCfg is the manager configuration template an
	// rm-crash restart rebuilds from; st is the open store (nil without
	// Options.StateDir); rmRestarts counts injected RM crashes.
	coreCfg    core.Config
	st         *store.Store
	rmRestarts int
}

// muteState is one in-flight session fault: the victim's measurements stop
// flowing until the deadline passes (until < 0 = forever, a crash).
type muteState struct {
	until     time.Duration
	reconnect bool // re-register once the mute lifts (dropout/disconnect)
}

// attachHARP connects the RM to a machine.
func attachHARP(machine *sim.Machine, sc Scenario, opts Options) (*harpHarness, error) {
	// Rebind the tracer and energy ledger to virtual time before anything
	// emits or integrates: identical scenarios then produce bit-identical
	// event streams and joule totals.
	opts.Tracer.SetClock(machine.Now)
	opts.Energy.SetClock(machine.Now)
	if mt := opts.Metrics; mt != nil {
		opts.Tracer.CountDrops(mt.TracerDropped)
		opts.Journal.CountErrors(mt.JournalErrors)
	}
	disableExplore := opts.Policy == PolicyHARPOffline || !sc.Platform.SimultaneousPMU
	coreCfg := core.Config{
		Platform:           sc.Platform,
		OfflineTables:      opts.OfflineTables,
		DisableExploration: disableExplore,
		Tracer:             opts.Tracer,
		Journal:            opts.Journal,
		Metrics:            opts.Metrics,
		Energy:             opts.Energy,
		Allocator:          opts.allocator,
		AllocWarmStart:     opts.AllocWarmStart,
	}
	mgr, st, err := core.OpenManager(coreCfg, opts.StateDir)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(machine, monitor.WithSeed(opts.Seed), monitor.WithTracer(opts.Tracer), monitor.WithMetrics(opts.Metrics))
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}

	h := &harpHarness{
		machine:      machine,
		mgr:          mgr,
		mon:          mon,
		opts:         opts,
		managed:      make(map[string]*sim.Proc),
		energyAt:     make(map[string]float64),
		stableAtSec:  -1,
		restartCount: make(map[string]int),
		liveness:     opts.Liveness,
		faults:       opts.Faults.Cursor(),
		sessionUp:    make(map[string]bool),
		lastSeen:     make(map[string]time.Duration),
		muted:        make(map[string]*muteState),
		coreCfg:      coreCfg,
		st:           st,
	}
	h.buildTopology()

	mgr.OnDecision(h.applyDecision)
	machine.OnProcStart(h.scheduleRegistration)
	machine.OnProcExit(h.onExit)
	machine.Every(core.AdaptationTick, h.measureTick)
	return h, nil
}

func (h *harpHarness) buildTopology() {
	topo := h.machine.Topology()
	nCores := 0
	for _, info := range topo {
		if info.Core+1 > nCores {
			nCores = info.Core + 1
		}
	}
	h.coreToHW = make([][]sim.HWThread, nCores)
	for _, info := range topo {
		h.coreToHW[info.Core] = append(h.coreToHW[info.Core], info.ID)
	}
}

// scheduleRegistration registers the process with the RM after the libharp
// startup delay — until then the app runs unmanaged, exactly like a process
// whose library is still initialising.
func (h *harpHarness) scheduleRegistration(p *sim.Proc) {
	var cancel func()
	cancel = h.machine.Every(registrationDelay, func(time.Duration) {
		cancel()
		h.register(p)
	})
}

func (h *harpHarness) register(p *sim.Proc) {
	if p.Done() {
		return
	}
	prof := p.Profile()
	if err := h.mon.Track(p.ID()); err != nil {
		return
	}
	// Record the instance before registering: the RM pushes the first
	// decision synchronously from within Register.
	h.managed[p.Name()] = p
	h.instDirty = true
	if err := h.mgr.Register(p.Name(), prof.Name, prof.Adaptivity, prof.OwnUtility); err != nil {
		delete(h.managed, p.Name())
		h.instDirty = true
		h.mon.Untrack(p.ID())
		return
	}
	h.sessionUp[p.Name()] = true
	h.lastSeen[p.Name()] = h.machine.Now()
	h.retax()
}

// retax applies the management overhead model to every managed process.
func (h *harpHarness) retax() {
	n := len(h.managed)
	tax := 0.0
	if n > 0 {
		tax = taxBase + taxPerApp*float64(n-1)
	}
	for _, p := range h.managed {
		_ = h.machine.SetRateTax(p.ID(), tax)
	}
}

// applyDecision is the libharp side of the activation push (§4.1.1 step 3).
func (h *harpHarness) applyDecision(d core.Decision) {
	if h.opts.Policy == PolicyHARPOverhead {
		// §6.6: messages flow but libharp ignores them.
		return
	}
	p, ok := h.managed[d.Instance]
	if !ok || p.Done() {
		return
	}
	var cores []int
	var hws []sim.HWThread
	for _, g := range d.Grants {
		if g.Core < 0 || g.Core >= len(h.coreToHW) {
			continue
		}
		cores = append(cores, g.Core)
		siblings := h.coreToHW[g.Core]
		n := g.Threads
		if n > len(siblings) {
			n = len(siblings)
		}
		hws = append(hws, siblings[:n]...)
	}
	if len(hws) == 0 {
		// A parked decision (quarantine): the RM reclaimed every core. The
		// simulated process keeps its last affinity — a real unmanaged app
		// keeps running too — but the standing grant is gone, which the
		// timeline records as an empty allocation.
		h.recordTimeline(d.Instance, d.Vector.Key(), d.Threads, nil, d.Exploring, d.CoAllocated)
		return
	}
	if err := h.machine.SetAffinity(p.ID(), hws); err != nil {
		return
	}
	h.mon.ResetSmoothing(p.ID())
	if d.Threads > 0 && h.opts.Policy != PolicyHARPNoScaling {
		_ = h.machine.SetThreads(p.ID(), d.Threads)
	}
	h.recordTimeline(d.Instance, d.Vector.Key(), d.Threads, cores, d.Exploring, d.CoAllocated)
}

// recordTimeline appends one applied decision when timeline capture is on.
func (h *harpHarness) recordTimeline(instance, vectorKey string, threads int, cores []int, exploring, coAlloc bool) {
	if !h.opts.RecordTimeline {
		return
	}
	h.timeline = append(h.timeline, TimelineEvent{
		AtSec:       h.machine.Now().Seconds(),
		Instance:    instance,
		VectorKey:   vectorKey,
		Threads:     threads,
		Cores:       cores,
		Exploring:   exploring,
		CoAllocated: coAlloc,
	})
}

// instances returns the managed instance names in sorted order, rebuilding
// the cached slice only when the managed set changed since the last tick.
func (h *harpHarness) instances() []string {
	if h.instDirty {
		h.instOrder = h.instOrder[:0]
		for instance := range h.managed {
			h.instOrder = append(h.instOrder, instance)
		}
		sort.Strings(h.instOrder)
		h.instDirty = false
	}
	return h.instOrder
}

// measureTick is the 50 ms monitoring cadence: inject due faults, sample
// every managed app and feed the RM (in deterministic instance order), then
// run the liveness sweep.
func (h *harpHarness) measureTick(now time.Duration) {
	h.injectFaults(now)
	samples := h.mon.Sample()
	for _, instance := range h.instances() {
		if h.mutedAt(instance, now) {
			continue // the fault severed this instance's libharp channel
		}
		if !h.sessionUp[instance] {
			continue // reaped and not (yet) reconnected
		}
		p := h.managed[instance]
		meas, ok := samples[p.ID()]
		if !ok {
			continue
		}
		prof := p.Profile()
		utility := meas.SmoothedIPS
		if prof.OwnUtility {
			utility = meas.UsefulRate * prof.UtilityScale
		}
		if h.opts.Tracer.Enabled() {
			h.opts.Tracer.Emit(telemetry.Event{
				Kind:     telemetry.EvAppSample,
				Instance: instance,
				App:      prof.Name,
				Utility:  meas.IPS,
				Power:    meas.PowerW,
				Vals:     [4]float64{meas.SmoothedIPS, meas.SmoothedPower},
			})
		}
		_ = h.mgr.Measure(instance, utility, meas.SmoothedPower)
		h.lastSeen[instance] = now
	}
	h.livenessSweep(now)
	if h.stableAtSec < 0 && len(h.managed) > 0 && h.mgr.AllStable() {
		h.stableAtSec = now.Seconds()
	}
}

// injectFaults delivers every fault that has come due on the virtual clock.
// Connection-level kinds that have no session analogue in the simulator
// (slow readers, delayed writes) are ignored; a disconnect is a dropout of
// one measure interval.
func (h *harpHarness) injectFaults(now time.Duration) {
	for _, f := range h.faults.Due(now) {
		switch f.Kind {
		case faultsim.KindRMCrash:
			h.restartRM(now)
			continue
		case faultsim.KindSolverStall:
			// The stall duration maps onto a count of skipped primary
			// solves — one per measure tick — so the injection is
			// deterministic on the virtual clock (no wall time involved).
			h.mgr.ForceDegradedSolves(h.faultTicks(f.Duration))
			continue
		case faultsim.KindStoreIO:
			if h.st != nil {
				h.st.InjectIOFaults(h.faultTicks(f.Duration))
			}
			continue
		}
		p, ok := h.managed[f.Target]
		if !ok || p.Done() {
			continue
		}
		switch f.Kind {
		case faultsim.KindCrash:
			h.muted[f.Target] = &muteState{until: -1}
		case faultsim.KindHang:
			h.muted[f.Target] = &muteState{until: now + f.Duration}
		case faultsim.KindDropout:
			h.muted[f.Target] = &muteState{until: now + f.Duration, reconnect: true}
		case faultsim.KindDisconnect:
			h.muted[f.Target] = &muteState{until: now + core.AdaptationTick, reconnect: true}
		}
	}
}

// faultTicks converts an RM-fault duration into a count of measure ticks
// (minimum one): how many solves or writes the fault covers.
func (h *harpHarness) faultTicks(d time.Duration) int {
	n := int(d / core.AdaptationTick)
	if n < 1 {
		n = 1
	}
	return n
}

// restartRM simulates kill -9 of the resource manager followed by an
// immediate restart: the store is closed without a final snapshot (WAL only,
// exactly the crash the durable layer exists for), reopened, and a fresh
// Manager replays the recovered state. Every session died with the old RM;
// live unmuted clients re-register immediately (libharp auto-reconnect),
// muted ones when their own fault lifts.
func (h *harpHarness) restartRM(now time.Duration) {
	if h.st != nil {
		_ = h.st.Close() // crash: no snapshot
	}
	mgr, st, err := core.OpenManager(h.coreCfg, h.opts.StateDir)
	if err != nil {
		return // state dir unusable: keep the old RM running
	}
	h.mgr, h.st = mgr, st
	mgr.OnDecision(h.applyDecision)
	h.rmRestarts++
	for _, instance := range h.instances() {
		h.sessionUp[instance] = false
	}
	// The restart severed every connection, so even clients muted by a
	// timed fault come back through the reconnect path once they recover.
	for _, ms := range h.muted {
		if ms.until >= 0 {
			ms.reconnect = true
		}
	}
	for _, instance := range h.instances() {
		if _, isMuted := h.muted[instance]; isMuted {
			continue
		}
		h.reconnectSession(instance, now)
	}
}

// shutdownStore ends a clean run: final snapshot, then release the store.
func (h *harpHarness) shutdownStore() error {
	if h.st == nil {
		return nil
	}
	err := h.mgr.SnapshotTo(h.st)
	if cerr := h.st.Close(); err == nil {
		err = cerr
	}
	h.st = nil
	return err
}

// abandonStore releases the store without a snapshot (failed runs).
func (h *harpHarness) abandonStore() {
	if h.st != nil {
		_ = h.st.Close()
		h.st = nil
	}
}

// mutedAt reports whether the instance's libharp channel is severed at now,
// lifting expired mutes and re-registering dropout victims whose session the
// reaper collected in the meantime (the simulated auto-reconnect).
func (h *harpHarness) mutedAt(instance string, now time.Duration) bool {
	ms, ok := h.muted[instance]
	if !ok {
		return false
	}
	if ms.until < 0 || now < ms.until {
		return true
	}
	delete(h.muted, instance)
	if ms.reconnect && !h.sessionUp[instance] {
		h.reconnectSession(instance, now)
	}
	return false
}

// reconnectSession re-registers a dropout victim, the harness-side analogue
// of libharp's auto-reconnect after a server- or network-induced session
// loss.
func (h *harpHarness) reconnectSession(instance string, now time.Duration) {
	p := h.managed[instance]
	if p == nil || p.Done() {
		return
	}
	prof := p.Profile()
	if err := h.mgr.Register(instance, prof.Name, prof.Adaptivity, prof.OwnUtility); err != nil {
		return
	}
	h.sessionUp[instance] = true
	h.lastSeen[instance] = now
}

// livenessSweep escalates silent sessions on the virtual clock: suspect →
// quarantined (cores reclaimed, learning frozen) → reaped. Runs once per
// measure tick, so reclamation is bounded by ReapAfter plus one tick.
func (h *harpHarness) livenessSweep(now time.Duration) {
	if !h.liveness.Enabled() {
		return
	}
	for _, instance := range h.instances() {
		if !h.sessionUp[instance] {
			continue
		}
		age := now - h.lastSeen[instance]
		if h.liveness.ShouldReap(age) {
			h.sessionUp[instance] = false
			_ = h.mgr.Reap(instance)
			h.recordTimeline(instance, "", 0, nil, false, false)
			continue
		}
		state := h.liveness.StateFor(age)
		reason := "silent"
		if state == core.LivenessLive {
			reason = "resumed"
		}
		_ = h.mgr.SetLiveness(instance, state, reason)
	}
}

func (h *harpHarness) onExit(p *sim.Proc) {
	if _, ok := h.managed[p.Name()]; ok {
		h.energyAt[p.Name()] = h.mon.Untrack(p.ID())
		if h.sessionUp[p.Name()] {
			_ = h.mgr.Deregister(p.Name())
			h.recordTimeline(p.Name(), "", 0, nil, false, false)
		}
		delete(h.managed, p.Name())
		delete(h.sessionUp, p.Name())
		delete(h.lastSeen, p.Name())
		delete(h.muted, p.Name())
		h.instDirty = true
		h.retax()
	}
	if h.repeat && h.machine.Now() < h.repeatUntil {
		prof := p.Profile()
		h.restartCount[prof.Name]++
		instance := fmt.Sprintf("%s~r%d", prof.Name, h.restartCount[prof.Name])
		_, _ = h.machine.Start(prof, instance)
	}
}

func (h *harpHarness) attributedEnergy(p *sim.Proc) float64 {
	return h.energyAt[p.Name()]
}
