// Package workload models application behaviour on heterogeneous processors.
//
// HARP itself never inspects application internals — it only observes the
// (allocation → utility, power) response and flips adaptivity knobs through
// libharp. This package provides that response analytically: each benchmark
// from the paper's evaluation (NAS, Intel TBB, TensorFlow, KPN) is described
// by a Profile capturing the first-order effects that drive scheduling on
// heterogeneous CPUs — Amdahl fractions, memory-boundedness (which shrinks
// the P/E speed gap), SMT friendliness, barrier imbalance across unequal
// cores, shared-queue contention, busy-wait spinning, and time-sharing
// overheads.
package workload

import (
	"fmt"
	"math"

	"github.com/harp-rm/harp/internal/platform"
)

// Adaptivity classifies how an application can react to allocation changes
// (§4.1.3 of the paper).
type Adaptivity int

// Adaptivity values.
const (
	// Static applications cannot adapt; libharp can only restrict them to a
	// core subset (affinity), so thread counts stay fixed.
	Static Adaptivity = iota + 1
	// Scalable applications (OpenMP, TBB, the TensorFlow wrapper) can change
	// their parallelisation degree at runtime once libharp makes them
	// malleable.
	Scalable
	// Custom applications (KPN) expose application-specific knobs via
	// libharp callbacks, including dynamic load redistribution.
	Custom
)

// String implements fmt.Stringer.
func (a Adaptivity) String() string {
	switch a {
	case Static:
		return "static"
	case Scalable:
		return "scalable"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("adaptivity(%d)", int(a))
	}
}

// WaitPolicy determines what an application thread does while it waits at a
// barrier, lock or empty queue.
type WaitPolicy int

// WaitPolicy values.
const (
	// Block yields the hardware thread (futex-style): no instructions are
	// executed and almost no power is drawn while waiting.
	Block WaitPolicy = iota + 1
	// Spin busy-waits: the hardware thread keeps retiring (useless)
	// instructions at full speed, inflating IPS and power. This is how lu's
	// measured IPS overstates its true utility (§6.3.1).
	Spin
)

// Tunables of the shared machine model. They are package-level constants so
// every scheduler sees the same physics.
const (
	// csOverheadAlpha is the throughput loss per unit of oversubscription
	// from context switching and cache pollution.
	csOverheadAlpha = 0.08
	// lockHolderAlpha is the additional loss for barrier-coupled apps whose
	// lock/barrier holders get preempted while time-sharing (§2.2).
	lockHolderAlpha = 0.45
	// barrierSpinFrac is the fraction of full power a blocking barrier
	// waiter still burns: OpenMP runtimes spin actively at barriers before
	// sleeping (libgomp's wait policy), so threads pacing on slower
	// siblings are far from idle.
	barrierSpinFrac = 0.4
)

// Profile is the analytic behaviour model of one application.
type Profile struct {
	// Name identifies the benchmark, e.g. "ep.C" or "binpack".
	Name string
	// Adaptivity is the application's libharp adaptivity class.
	Adaptivity Adaptivity
	// WorkGI is the total useful work in giga-instructions.
	WorkGI float64
	// SerialFrac is the Amdahl serial fraction in [0, 1).
	SerialFrac float64
	// MemBound in [0, 1] is the memory intensity. It both shrinks the
	// per-core speed through the kind's MemPenalty and generates memory
	// traffic against the platform bandwidth cap.
	MemBound float64
	// SMTFriendly in [0, 1] scales how much of a core kind's maximum SMT
	// gain the application realises when both hardware threads are busy.
	SMTFriendly float64
	// Barrier marks barrier-coupled data parallelism: with a static work
	// split, every iteration waits for the slowest thread, so mixed
	// P/E allocations are paced by the efficiency cores.
	Barrier bool
	// DynamicLoad marks internal dynamic load distribution (TBB work
	// stealing, adaptive KPNs): thread speeds add up instead of being paced
	// by the slowest.
	DynamicLoad bool
	// Wait is the waiting behaviour (Block or Spin).
	Wait WaitPolicy
	// QueueCap, when positive, models a shared-queue bottleneck: beyond
	// QueueCap threads, contention divides throughput by
	// 1 + QueuePenalty·(threads − QueueCap). This is binpack's collapse.
	QueueCap int
	// QueuePenalty is the contention coefficient (see QueueCap).
	QueuePenalty float64
	// SyncOverhead is the per-extra-thread synchronisation cost; throughput
	// is divided by 1 + SyncOverhead·(threads − 1).
	SyncOverhead float64
	// DefaultThreads is the parallelisation degree the application chooses
	// on its own (moldable, fixed at launch). Zero means "one per hardware
	// thread", the common OpenMP/TBB default.
	DefaultThreads int
	// OwnUtility marks applications that report an application-specific
	// utility metric through libharp instead of relying on IPS.
	OwnUtility bool
	// UtilityScale converts useful giga-instructions to the app-specific
	// utility unit (e.g. transactions). Only meaningful with OwnUtility.
	UtilityScale float64
	// StartupGI is extra serial work executed once at startup (process
	// launch, input loading). It makes short-running apps (primes, is)
	// sensitive to any management-induced slow start.
	StartupGI float64
}

// Validate checks the profile for model-consistent parameters.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile with empty name")
	case p.Adaptivity < Static || p.Adaptivity > Custom:
		return fmt.Errorf("workload: %s: bad adaptivity %d", p.Name, p.Adaptivity)
	case p.WorkGI <= 0:
		return fmt.Errorf("workload: %s: work %g", p.Name, p.WorkGI)
	case p.SerialFrac < 0 || p.SerialFrac >= 1:
		return fmt.Errorf("workload: %s: serial fraction %g", p.Name, p.SerialFrac)
	case p.MemBound < 0 || p.MemBound > 1:
		return fmt.Errorf("workload: %s: memory boundedness %g", p.Name, p.MemBound)
	case p.SMTFriendly < 0 || p.SMTFriendly > 1:
		return fmt.Errorf("workload: %s: SMT friendliness %g", p.Name, p.SMTFriendly)
	case p.Wait != Block && p.Wait != Spin:
		return fmt.Errorf("workload: %s: bad wait policy %d", p.Name, p.Wait)
	case p.QueueCap < 0 || p.QueuePenalty < 0:
		return fmt.Errorf("workload: %s: bad queue model (%d, %g)", p.Name, p.QueueCap, p.QueuePenalty)
	case p.SyncOverhead < 0:
		return fmt.Errorf("workload: %s: sync overhead %g", p.Name, p.SyncOverhead)
	case p.DefaultThreads < 0:
		return fmt.Errorf("workload: %s: default threads %d", p.Name, p.DefaultThreads)
	case p.OwnUtility && p.UtilityScale <= 0:
		return fmt.Errorf("workload: %s: own utility without a utility scale", p.Name)
	case p.StartupGI < 0:
		return fmt.Errorf("workload: %s: startup work %g", p.Name, p.StartupGI)
	}
	return nil
}

// Threads returns the parallelisation degree the application uses when left
// alone on the given platform (its moldable default).
func (p *Profile) Threads(plat *platform.Platform) int {
	if p.DefaultThreads > 0 {
		return p.DefaultThreads
	}
	return plat.NumHWThreads()
}

// Slot describes the share of one hardware thread given to one application
// thread. The simulator builds slots from the global placement; callers that
// only need exclusive coarse allocations can use SlotsForVector.
type Slot struct {
	// Kind is the core kind the hardware thread belongs to.
	Kind platform.KindID
	// BusyOnCore is how many hardware threads of the same physical core are
	// busy (with any application); it determines the SMT sharing factor.
	BusyOnCore int
	// Share is the fraction of the hardware thread's time given to this
	// application thread (1 = exclusive).
	Share float64
	// FreqScale is the current frequency as a fraction of the kind's
	// maximum (set by the DVFS governor model).
	FreqScale float64
}

// Conditions carries machine-level context for a response evaluation.
type Conditions struct {
	// MemBWGips is the memory bandwidth available to this application.
	MemBWGips float64
}

// Response is the application's instantaneous behaviour under a placement.
type Response struct {
	// UsefulRate is the rate of useful work in giga-instructions/s; it is
	// what actually advances the application towards completion.
	UsefulRate float64
	// ExecRate is the rate of retired instructions in giga-instructions/s —
	// what a perf-style IPS counter observes. Spinning inflates it above
	// UsefulRate.
	ExecRate float64
	// Busy holds, per slot, the fraction of the granted share the thread
	// keeps the hardware busy (drives the power model).
	Busy []float64
	// MemTraffic is the memory-bound instruction rate, used by the machine
	// to arbitrate the shared bandwidth cap.
	MemTraffic float64
}

// Respond evaluates the profile on a set of slots (one per application
// thread). It returns the zero Response for an empty placement. The
// response's Busy is written into busy when it holds one entry per slot, and
// allocated otherwise.
func (p *Profile) Respond(plat *platform.Platform, slots []Slot, cond Conditions, busy []float64) Response {
	n := len(slots)
	if n == 0 {
		return Response{}
	}
	if len(busy) != n {
		busy = make([]float64, n)
	}

	// Per-thread delivered rates and raw capacity.
	var sumShare float64
	minRate, maxRate := math.Inf(1), 0.0
	var sumRate float64
	for _, s := range slots {
		kind := &plat.Kinds[s.Kind]
		base := kind.ComputeRate() * s.FreqScale * (1 - p.MemBound*kind.MemPenalty)
		smt := 1.0
		if s.BusyOnCore > 1 {
			gain := 1 + p.SMTFriendly*kind.SMTMaxGain
			smt = gain / float64(s.BusyOnCore)
		}
		r := base * smt * s.Share
		sumRate += r
		sumShare += s.Share
		minRate = min(minRate, r)
		maxRate = max(maxRate, r)
	}

	// Time-sharing overheads: context switching for everyone, lock-holder
	// preemption on top for barrier-coupled apps.
	oversub := float64(n) / max(sumShare, 1e-9)
	if oversub > 1 {
		eff := 1 / (1 + csOverheadAlpha*(oversub-1))
		if p.Barrier && !p.DynamicLoad {
			eff /= 1 + lockHolderAlpha*(oversub-1)
		}
		sumRate *= eff
		minRate *= eff
		maxRate *= eff
	}

	// Parallel aggregate: statically split barrier apps are paced by the
	// slowest thread; dynamic ones add their speeds.
	var parallel float64
	if p.Barrier && !p.DynamicLoad {
		parallel = float64(n) * minRate
	} else {
		parallel = sumRate
	}

	// Shared-queue contention (binpack).
	if p.QueueCap > 0 && n > p.QueueCap {
		parallel /= 1 + p.QueuePenalty*float64(n-p.QueueCap)
	}

	// Generic synchronisation overhead.
	if n > 1 {
		parallel /= 1 + p.SyncOverhead*float64(n-1)
	}

	// Memory bandwidth ceiling.
	if p.MemBound > 0 && cond.MemBWGips > 0 {
		parallel = min(parallel, cond.MemBWGips/p.MemBound)
	}

	// Amdahl blend: serial phases run on the fastest granted thread.
	useful := parallel
	if p.SerialFrac > 0 {
		useful = 1 / (p.SerialFrac/maxRate + (1-p.SerialFrac)/parallel)
	}

	// Productive fraction of the granted capacity: how much of the busy time
	// is useful versus waiting.
	phi := 1.0
	if sumRate > 0 {
		phi = min(1, useful/sumRate)
	}

	resp := Response{
		UsefulRate: useful,
		Busy:       busy,
		MemTraffic: useful * p.MemBound,
	}
	switch p.Wait {
	case Spin:
		// Waiting threads burn their whole share executing spin loops.
		resp.ExecRate = sumRate
		for i, s := range slots {
			resp.Busy[i] = s.Share
		}
		resp.MemTraffic = sumRate * p.MemBound
	default: // Block
		// Barrier waiters spin (PAUSE loops) before sleeping: they burn
		// power (barrierSpinFrac) but retire almost no instructions, so the
		// IPS observable stays at the useful rate.
		resp.ExecRate = useful
		waitBurn := 0.0
		if p.Barrier && !p.DynamicLoad {
			waitBurn = barrierSpinFrac
		}
		for i, s := range slots {
			resp.Busy[i] = s.Share * (phi + waitBurn*(1-phi))
		}
	}
	return resp
}

// SlotsForVector builds exclusive slots (share 1, max frequency) for the
// given extended resource vector with exactly one application thread per
// granted hardware thread — the configuration HARP's coarse-grained
// allocation targets.
func SlotsForVector(plat *platform.Platform, rv platform.ResourceVector) []Slot {
	slots := make([]Slot, 0, rv.Threads())
	for kind, counts := range rv.Counts {
		for tIdx, cores := range counts {
			busy := tIdx + 1
			for c := 0; c < cores; c++ {
				for t := 0; t < busy; t++ {
					slots = append(slots, Slot{
						Kind:       platform.KindID(kind),
						BusyOnCore: busy,
						Share:      1,
						FreqScale:  1,
					})
				}
			}
		}
	}
	return slots
}

// EvaluateVector is the closed-form evaluator used by offline DSE, Fig. 1
// sweeps and ground-truth tables: it reports the steady-state utility
// (useful rate for OwnUtility apps, IPS otherwise), the CPU power drawn by
// the allocation, and the projected execution time for the whole profile.
func EvaluateVector(plat *platform.Platform, p *Profile, rv platform.ResourceVector) VectorEval {
	slots := SlotsForVector(plat, rv)
	resp := p.Respond(plat, slots, Conditions{MemBWGips: plat.MemBWGips}, nil)
	power := AllocPower(plat, rv, slots, resp.Busy)

	eval := VectorEval{
		IPS:        resp.ExecRate,
		PowerWatts: power,
	}
	if resp.UsefulRate > 0 {
		eval.TimeSec = (p.WorkGI + p.StartupGI) / resp.UsefulRate
		eval.EnergyJ = eval.TimeSec * power
	} else {
		eval.TimeSec = math.Inf(1)
		eval.EnergyJ = math.Inf(1)
	}
	eval.Utility = eval.IPS
	if p.OwnUtility {
		eval.Utility = resp.UsefulRate * p.UtilityScale
	}
	return eval
}

// VectorEval is the result of EvaluateVector.
type VectorEval struct {
	IPS        float64 // GI/s observed by perf
	Utility    float64 // utility metric HARP would see
	PowerWatts float64 // CPU power attributable to the allocation
	TimeSec    float64 // projected completion time
	EnergyJ    float64 // projected energy (power × time)
}

// AllocPower computes the power attributable to an exclusive allocation: the
// dynamic power of its busy hardware threads plus the idle power of the cores
// it occupies. Unallocated cores and the uncore are accounted at the machine
// level by the simulator.
func AllocPower(plat *platform.Platform, rv platform.ResourceVector, slots []Slot, busy []float64) float64 {
	var w float64
	for kind := range rv.Counts {
		w += float64(rv.Cores(platform.KindID(kind))) * plat.Kinds[kind].IdleWatts
	}
	for i, s := range slots {
		b := 1.0
		if i < len(busy) {
			b = busy[i]
		}
		kind := plat.Kinds[s.Kind]
		w += kind.ActiveWatts * kind.PowerShare(s.BusyOnCore) * b * s.FreqScale * s.FreqScale
	}
	return w
}
