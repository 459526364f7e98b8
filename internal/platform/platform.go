// Package platform models single-ISA heterogeneous processors: core kinds
// (performance vs. efficiency), SMT, frequency ranges and a first-order power
// model, together with the extended resource vectors HARP uses to describe
// coarse-grained allocations (§4.1.2 of the paper).
//
// The package is pure data + algebra; execution dynamics live in internal/sim.
package platform

import (
	"errors"
	"fmt"
	"strings"
)

// KindID indexes a core kind within a Platform. Kind 0 is by convention the
// highest-performance kind (P / big).
type KindID int

// CoreKind describes one class of cores on the die.
type CoreKind struct {
	// Name is the vendor-ish label, e.g. "P", "E", "A15", "A7".
	Name string `json:"name"`
	// Count is the number of physical cores of this kind.
	Count int `json:"count"`
	// SMT is the number of hardware threads per core (1 = no SMT).
	SMT int `json:"smt"`
	// MaxFreqGHz is the frequency the evaluation pins the kind to
	// (the paper limits frequencies to avoid thermal throttling, §6.1).
	MaxFreqGHz float64 `json:"maxFreqGHz"`
	// MinFreqGHz is the lowest operating frequency, used by the
	// powersave/schedutil governor models.
	MinFreqGHz float64 `json:"minFreqGHz"`
	// IPC is the peak instructions-per-cycle for fully compute-bound work.
	IPC float64 `json:"ipc"`
	// MemPenalty in [0,1] scales how much memory-bound work slows this kind
	// relative to its compute rate. Bigger out-of-order cores hide less of
	// their speed advantage on memory-bound code, so P-cores carry a larger
	// penalty and P/E ratios shrink for memory-bound applications.
	MemPenalty float64 `json:"memPenalty"`
	// SMTMaxGain is the maximum aggregate throughput gain from running both
	// hardware threads of one core (e.g. 0.5 → 1.5× core throughput). The
	// realised gain also depends on the application's SMT friendliness.
	SMTMaxGain float64 `json:"smtMaxGain"`
	// SMTPowerFactor is the marginal power of each additional busy hardware
	// thread on an already-active core, relative to ActiveWatts. SMT shares
	// most core structures, so the second thread is much cheaper than the
	// first — this is why ep's Pareto front favours even P-hyperthread
	// counts (Fig. 1a). Ignored for SMT = 1 kinds.
	SMTPowerFactor float64 `json:"smtPowerFactor,omitempty"`
	// ActiveWatts is the dynamic power of one fully busy hardware thread at
	// MaxFreqGHz.
	ActiveWatts float64 `json:"activeWatts"`
	// IdleWatts is the per-core power when the core is idle but not in a
	// deep sleep state.
	IdleWatts float64 `json:"idleWatts"`
	// SleepWatts is the per-core power in the deepest idle state (reached
	// under the powersave/schedutil governors when a core stays idle).
	SleepWatts float64 `json:"sleepWatts"`
}

// Validate checks the kind for internally consistent values.
func (k CoreKind) Validate() error {
	switch {
	case k.Name == "":
		return errors.New("platform: core kind with empty name")
	case k.Count <= 0:
		return fmt.Errorf("platform: kind %s: count %d", k.Name, k.Count)
	case k.SMT <= 0:
		return fmt.Errorf("platform: kind %s: smt %d", k.Name, k.SMT)
	case k.MaxFreqGHz <= 0 || k.MinFreqGHz <= 0 || k.MinFreqGHz > k.MaxFreqGHz:
		return fmt.Errorf("platform: kind %s: bad frequency range [%g, %g]",
			k.Name, k.MinFreqGHz, k.MaxFreqGHz)
	case k.IPC <= 0:
		return fmt.Errorf("platform: kind %s: ipc %g", k.Name, k.IPC)
	case k.MemPenalty < 0 || k.MemPenalty > 1:
		return fmt.Errorf("platform: kind %s: memPenalty %g outside [0,1]", k.Name, k.MemPenalty)
	case k.SMTMaxGain < 0:
		return fmt.Errorf("platform: kind %s: smtMaxGain %g", k.Name, k.SMTMaxGain)
	case k.SMTPowerFactor < 0 || k.SMTPowerFactor > 1:
		return fmt.Errorf("platform: kind %s: smtPowerFactor %g outside [0,1]", k.Name, k.SMTPowerFactor)
	case k.ActiveWatts <= 0 || k.IdleWatts < 0 || k.SleepWatts < 0:
		return fmt.Errorf("platform: kind %s: bad power model", k.Name)
	}
	return nil
}

// ComputeRate returns the kind's peak throughput for fully compute-bound
// work, in giga-instructions per second per hardware thread at max frequency.
func (k CoreKind) ComputeRate() float64 {
	return k.MaxFreqGHz * k.IPC
}

// PowerShare returns the per-thread dynamic power scale when busySiblings
// hardware threads of one core are active: the core's total dynamic power is
// ActiveWatts·(1 + SMTPowerFactor·(n−1)), split evenly across the threads.
func (k CoreKind) PowerShare(busySiblings int) float64 {
	if busySiblings <= 1 {
		return 1
	}
	n := float64(busySiblings)
	return (1 + k.SMTPowerFactor*(n-1)) / n
}

// Platform is a complete hardware description, normally loaded from a
// hardware description file (see LoadFile) or one of the built-ins.
type Platform struct {
	// Name identifies the machine, e.g. "intel-raptor-lake-i9-13900k".
	Name string `json:"name"`
	// Kinds lists the core kinds, fastest first.
	Kinds []CoreKind `json:"kinds"`
	// UncoreWatts is the constant package power (fabric, memory controller).
	UncoreWatts float64 `json:"uncoreWatts"`
	// MemBWGips caps the aggregate rate (giga-instructions per second) at
	// which memory-bound work can progress across the whole package.
	MemBWGips float64 `json:"memBWGips"`
	// EnergySensors names the energy counter domains the machine exposes:
	// "package" for a single RAPL-style counter, "island" for per-kind
	// sensors (Odroid XU3-E).
	EnergySensors string `json:"energySensors"`
	// SimultaneousPMU reports whether performance counters can be read on
	// all core kinds at the same time. The Odroid cannot (§6.4), which is
	// why the paper evaluates only HARP (Offline) there.
	SimultaneousPMU bool `json:"simultaneousPMU"`
}

// Validate checks the platform description.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return errors.New("platform: empty name")
	}
	if len(p.Kinds) == 0 {
		return errors.New("platform: no core kinds")
	}
	seen := make(map[string]bool, len(p.Kinds))
	for _, k := range p.Kinds {
		if err := k.Validate(); err != nil {
			return err
		}
		if seen[k.Name] {
			return fmt.Errorf("platform: duplicate kind %q", k.Name)
		}
		seen[k.Name] = true
	}
	if p.UncoreWatts < 0 {
		return fmt.Errorf("platform: uncoreWatts %g", p.UncoreWatts)
	}
	if p.MemBWGips <= 0 {
		return fmt.Errorf("platform: memBWGips %g", p.MemBWGips)
	}
	switch p.EnergySensors {
	case "package", "island":
	default:
		return fmt.Errorf("platform: unknown energySensors %q", p.EnergySensors)
	}
	return nil
}

// NumCores returns the total number of physical cores.
func (p *Platform) NumCores() int {
	var n int
	for _, k := range p.Kinds {
		n += k.Count
	}
	return n
}

// NumHWThreads returns the total number of hardware threads.
func (p *Platform) NumHWThreads() int {
	var n int
	for _, k := range p.Kinds {
		n += k.Count * k.SMT
	}
	return n
}

// KindOf maps a global core index to its kind. Cores are numbered kind by
// kind: kind 0 owns cores [0, Kinds[0].Count), and so on.
func (p *Platform) KindOf(core int) (KindID, error) {
	if core < 0 {
		return 0, fmt.Errorf("platform: negative core index %d", core)
	}
	offset := 0
	for id, k := range p.Kinds {
		if core < offset+k.Count {
			return KindID(id), nil
		}
		offset += k.Count
	}
	return 0, fmt.Errorf("platform: core index %d out of range (%d cores)", core, p.NumCores())
}

// CoreRange returns the half-open global core index range [lo, hi) for kind.
func (p *Platform) CoreRange(kind KindID) (lo, hi int) {
	for id, k := range p.Kinds {
		if KindID(id) == kind {
			return lo, lo + k.Count
		}
		lo += k.Count
	}
	return 0, 0
}

// Capacity returns the platform's total resource vector: every core of every
// kind running with all hardware threads in use.
func (p *Platform) Capacity() ResourceVector {
	rv := NewResourceVector(p)
	for id, k := range p.Kinds {
		rv.Counts[id][k.SMT-1] = k.Count
	}
	return rv
}

// String returns a compact human-readable summary.
func (p *Platform) String() string {
	parts := make([]string, 0, len(p.Kinds))
	for _, k := range p.Kinds {
		parts = append(parts, fmt.Sprintf("%d×%s(smt%d@%.1fGHz)", k.Count, k.Name, k.SMT, k.MaxFreqGHz))
	}
	return fmt.Sprintf("%s[%s]", p.Name, strings.Join(parts, " "))
}
