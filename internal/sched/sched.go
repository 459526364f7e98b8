// Package sched implements the OS-level thread placement policies HARP is
// compared against in the paper's evaluation: a CFS-like load balancer, the
// Linux Energy-Aware Scheduler (EAS) used on Arm big.LITTLE, and an Intel
// Thread Director (ITD)-guided allocator (§6.1, §6.3).
//
// All policies are greedy least-loaded placers with different core-kind
// preferences; they respect per-process affinity masks, which is exactly the
// hook HARP uses: HARP restricts each application to its allocated cores and
// lets the OS scheduler do low-level placement inside the mask (§4.3).
package sched

import (
	"slices"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
)

// prefFunc returns a capacity-style weight for placing a thread of the given
// process on a core kind; higher means preferred. 1.0 is neutral.
type prefFunc func(p sim.ProcView, kind platform.KindID) float64

// placeGreedy assigns every thread of every process to the hardware thread
// with the lowest preference-weighted load, spreading across physical cores
// before doubling up on SMT siblings.
func placeGreedy(topo []sim.HWInfo, procs []sim.ProcView, pref prefFunc) map[sim.ProcID][]sim.HWThread {
	loads := make([]int, len(topo))
	coreBusy := make(map[int]int) // physical core → busy hw threads
	out := make(map[sim.ProcID][]sim.HWThread, len(procs))

	for _, p := range procs {
		candidates := candidateThreads(topo, p)
		assignment := make([]sim.HWThread, 0, p.Threads)
		for t := 0; t < p.Threads; t++ {
			best := -1
			var bestScore float64
			var bestSiblings int
			for _, hw := range candidates {
				info := topo[hw]
				w := pref(p, info.Kind)
				if w <= 0 {
					w = 1e-3
				}
				score := float64(loads[hw]+1) / w
				siblings := coreBusy[info.Core]
				if loads[hw] > 0 {
					// Placing on an already-loaded hw thread does not add a
					// new busy sibling.
					siblings--
				}
				if best == -1 || score < bestScore ||
					(score == bestScore && siblings < bestSiblings) {
					best = int(hw)
					bestScore = score
					bestSiblings = siblings
				}
			}
			if best < 0 {
				break // no candidates (empty affinity); leave unplaced threads out
			}
			if loads[best] == 0 {
				coreBusy[topo[best].Core]++
			}
			loads[best]++
			assignment = append(assignment, sim.HWThread(best))
		}
		// If affinity left us short (should not happen — affinity is
		// non-empty by construction), pad by reusing the first candidate so
		// the machine's contract (one slot per thread) holds.
		for len(assignment) < p.Threads && len(candidates) > 0 {
			assignment = append(assignment, candidates[0])
		}
		out[p.ID] = assignment
	}
	return out
}

// candidateThreads lists the hardware threads the process may run on.
func candidateThreads(topo []sim.HWInfo, p sim.ProcView) []sim.HWThread {
	if p.Affinity == nil {
		out := make([]sim.HWThread, len(topo))
		for i := range topo {
			out[i] = topo[i].ID
		}
		return out
	}
	out := slices.Clone(p.Affinity)
	slices.Sort(out)
	return out
}

// CFS models the Linux Completely Fair Scheduler's load balancing on a
// hybrid machine without Thread Director input: spread runnable threads
// across hardware threads, filling the higher-capacity cores first (ITMT
// priority ordering), with no per-application behaviour awareness.
type CFS struct{}

var _ sim.Scheduler = CFS{}

// TracksUtil implements sim.Scheduler.
func (CFS) TracksUtil() bool { return false }

// Name implements sim.Scheduler.
func (CFS) Name() string { return "cfs" }

// Place implements sim.Scheduler.
func (CFS) Place(topo []sim.HWInfo, procs []sim.ProcView) map[sim.ProcID][]sim.HWThread {
	return placeGreedy(topo, procs, func(sim.ProcView, platform.KindID) float64 {
		// Neutral weights: ties resolve toward lower hardware-thread IDs,
		// i.e. the P/big cores, matching ITMT core priorities.
		return 1
	})
}

// EAS models the Linux Energy-Aware Scheduler used on the Odroid XU3-E:
// PELT-style task utilisation steers low-utilisation tasks to the LITTLE
// island and keeps compute-saturated tasks on big cores (§3.1).
type EAS struct{}

// easBigThreshold is the per-thread utilisation above which a task is
// considered to need a big core. Linux uses ~80 % of LITTLE capacity.
const easBigThreshold = 0.65

var _ sim.Scheduler = EAS{}

// TracksUtil implements sim.Scheduler.
func (EAS) TracksUtil() bool { return true }

// Name implements sim.Scheduler.
func (EAS) Name() string { return "eas" }

// Place implements sim.Scheduler.
func (EAS) Place(topo []sim.HWInfo, procs []sim.ProcView) map[sim.ProcID][]sim.HWThread {
	return placeGreedy(topo, procs, func(p sim.ProcView, kind platform.KindID) float64 {
		util := p.AvgThreadUtil
		if util == 0 {
			// PELT primes new tasks optimistically; assume compute-heavy.
			util = 1
		}
		// Kind 0 is big, later kinds are smaller/more efficient.
		if util >= easBigThreshold {
			if kind == 0 {
				return 1.3
			}
			return 1
		}
		if kind == 0 {
			return 1
		}
		return 1.5
	})
}

// ITD models an Intel-Thread-Director-guided allocator (the paper's extended
// baseline, §6.1): the hardware classifies each thread's instruction mix and
// reports per-kind performance scores; the scheduler biases threads with a
// high P-core benefit toward P-cores and memory-bound threads toward
// E-cores. The classification inputs (memory-boundedness) mirror what the
// ITD derives from instruction mix at nanosecond granularity.
type ITD struct {
	Platform *platform.Platform
}

// itdBenefitThreshold is the P/E speed ratio above which a thread is
// steered to P-cores.
const itdBenefitThreshold = 1.35

var _ sim.Scheduler = ITD{}

// TracksUtil implements sim.Scheduler.
func (ITD) TracksUtil() bool { return false }

// Name implements sim.Scheduler.
func (ITD) Name() string { return "itd" }

// Place implements sim.Scheduler.
func (s ITD) Place(topo []sim.HWInfo, procs []sim.ProcView) map[sim.ProcID][]sim.HWThread {
	return placeGreedy(topo, procs, func(p sim.ProcView, kind platform.KindID) float64 {
		benefit := s.pBenefit(p)
		if benefit >= itdBenefitThreshold {
			// Classified as P-favouring (high ITD performance score on P).
			if kind == 0 {
				return 1.6
			}
			return 1
		}
		// Memory-bound classes gain little from P-cores; the energy-
		// efficiency score favours E-cores.
		if kind == 0 {
			return 1
		}
		return 1.6
	})
}

// pBenefit estimates the thread-class speed ratio between the fastest and
// the most efficient kind for this process.
func (s ITD) pBenefit(p sim.ProcView) float64 {
	if s.Platform == nil || len(s.Platform.Kinds) < 2 {
		return 1
	}
	fast := s.Platform.Kinds[0]
	eff := s.Platform.Kinds[len(s.Platform.Kinds)-1]
	fastRate := fast.ComputeRate() * (1 - p.MemBound*fast.MemPenalty)
	effRate := eff.ComputeRate() * (1 - p.MemBound*eff.MemPenalty)
	if effRate <= 0 {
		return 1
	}
	return fastRate / effRate
}
