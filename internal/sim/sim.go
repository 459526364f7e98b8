// Package sim is a deterministic discrete-time simulator of a heterogeneous
// multicore machine. It substitutes for the paper's physical testbeds
// (Intel Raptor Lake, Odroid XU3-E): an OS-level scheduler places application
// threads on hardware threads each quantum, applications progress according
// to their workload models, and the machine meters energy exactly the way
// RAPL/per-island sensors would — so HARP's monitoring, attribution,
// exploration and allocation code runs unmodified on top.
package sim

import (
	"github.com/harp-rm/harp/internal/platform"
)

// ProcID identifies a running application process within a Machine.
type ProcID int

// HWThread is a global hardware-thread index (0 ≤ id < NumHWThreads).
type HWThread int

// HWInfo describes one hardware thread of the simulated machine.
type HWInfo struct {
	ID   HWThread
	Core int             // global physical core index
	Kind platform.KindID // core kind
}

// Governor selects the DVFS/idle-state policy, mirroring the paper's
// frequency-governor ablation (§6.3.3): powersave/schedutil ramp frequencies
// and let idle cores reach deep sleep states, while performance pins maximum
// frequency and keeps idle cores in shallow states.
type Governor int

// Governor values.
const (
	// GovernorPowersave is the Intel default in the evaluation.
	GovernorPowersave Governor = iota + 1
	// GovernorSchedutil is the Odroid default; it behaves like powersave in
	// this model.
	GovernorSchedutil
	// GovernorPerformance pins max frequency and disables deep idle states.
	GovernorPerformance
)

// String implements fmt.Stringer.
func (g Governor) String() string {
	switch g {
	case GovernorPowersave:
		return "powersave"
	case GovernorSchedutil:
		return "schedutil"
	case GovernorPerformance:
		return "performance"
	default:
		return "governor(?)"
	}
}

// busyFreqScale returns the frequency scale of a busy core under g: ramping
// governors lag slightly behind the pinned maximum.
func (g Governor) busyFreqScale() float64 {
	if g == GovernorPerformance {
		return 1.0
	}
	return 0.97
}

// idleWatts returns the idle power of a core under g.
func (g Governor) idleWatts(k platform.CoreKind) float64 {
	if g == GovernorPerformance {
		return k.IdleWatts
	}
	return k.SleepWatts
}

// ProcView is the read-only process information exposed to schedulers. The
// behavioural hint MemBound stands in for what real systems learn from
// hardware instruction-mix monitoring (e.g. Intel Thread Director); it is
// visible to the *OS-level* scheduler models only, never to HARP, which must
// learn behaviour through measurements.
type ProcView struct {
	ID       ProcID
	Threads  int
	Affinity []HWThread // nil = unrestricted
	MemBound float64
	// AvgThreadUtil is a PELT-style exponentially smoothed per-thread busy
	// fraction in [0, 1], as Linux EAS would track.
	AvgThreadUtil float64
}

// Scheduler is the OS-level thread placement policy. Place is invoked
// whenever the process set, thread counts or affinities change and, for a
// scheduler whose TracksUtil reports true, also on every 200 ms
// load-balancing tick; it must return, for every process, one hardware
// thread per application thread (duplicates allowed — they time-share),
// in a map the machine keeps until the next placement.
type Scheduler interface {
	Name() string
	// TracksUtil reports whether Place reads ProcView.AvgThreadUtil, which
	// moves every quantum. A scheduler that reads only the process set,
	// thread counts, affinities and MemBound places the same way until one
	// of them changes, so the machine skips its periodic re-placement.
	TracksUtil() bool
	Place(topo []HWInfo, procs []ProcView) map[ProcID][]HWThread
}

// Counters is a snapshot of one process's accumulated execution metrics —
// what /proc + perf would report.
type Counters struct {
	ExecutedGI    float64   // retired giga-instructions (IPS integrates this)
	UsefulGI      float64   // useful work completed
	CPUTimeByKind []float64 // busy hardware-thread seconds per core kind
	DynEnergyJ    float64   // ground-truth dynamic energy of this process
}

// EnergyReading is a snapshot of the machine-level energy sensors.
type EnergyReading struct {
	PackageJ float64   // total package energy (RAPL-style)
	ByKindJ  []float64 // per-island energy (Odroid-style sensors)
	UncoreJ  float64
}
