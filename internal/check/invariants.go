package check

import (
	"fmt"
	"math"
	"slices"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// CostBound is the acceptance bound for the production solver: on
// oracle-sized instances the Lagrangian solution's total cost must stay
// within this factor of the exact optimum.
const CostBound = 1.10

// CheckAllocations verifies the structural invariants of one allocator solve
// against its inputs: one allocation per input in order; every grant on a
// real core with a legal thread count; spatially isolated allocations
// granting exactly their selected vector, never overlapping each other, and
// conserving per-kind capacity. Returns the first violated invariant.
func CheckAllocations(p *platform.Platform, inputs []alloc.AppInput, allocs []alloc.Allocation) error {
	if len(allocs) != len(inputs) {
		return fmt.Errorf("check: %d allocations for %d inputs", len(allocs), len(inputs))
	}
	for i, al := range allocs {
		if al.ID != inputs[i].ID {
			return fmt.Errorf("check: allocation %d is %q, want input order %q", i, al.ID, inputs[i].ID)
		}
	}
	used := make([]int, len(p.Kinds))
	for i, al := range allocs {
		grantsPerKT := make(map[[2]int]int)
		for _, g := range al.Grants {
			kind, err := p.KindOf(g.Core)
			if err != nil {
				return fmt.Errorf("check: %s: grant on core %d: %v", al.ID, g.Core, err)
			}
			if g.Threads < 1 || g.Threads > p.Kinds[kind].SMT {
				return fmt.Errorf("check: %s: core %d granted %d threads (kind %s has SMT %d)",
					al.ID, g.Core, g.Threads, p.Kinds[kind].Name, p.Kinds[kind].SMT)
			}
			grantsPerKT[[2]int{int(kind), g.Threads}]++
		}
		if al.CoAllocated {
			continue
		}
		// An isolated allocation must realise exactly its selected vector:
		// Counts[kind][t-1] cores granted with t threads each.
		for kindIdx, counts := range al.Point.Vector.Counts {
			for t, c := range counts {
				if got := grantsPerKT[[2]int{kindIdx, t + 1}]; got != c {
					return fmt.Errorf("check: %s: vector %s wants %d cores of kind %d at %d threads, granted %d",
						al.ID, al.Point.Vector, c, kindIdx, t+1, got)
				}
			}
		}
		for k, d := range al.Point.Vector.CoreDemand() {
			used[k] += d
		}
		for j := i + 1; j < len(allocs); j++ {
			if !allocs[j].CoAllocated && alloc.Overlaps(al, allocs[j]) {
				return fmt.Errorf("check: isolated allocations %s and %s overlap", al.ID, allocs[j].ID)
			}
		}
	}
	for k, u := range used {
		if u > p.Kinds[k].Count {
			return fmt.Errorf("check: kind %s over capacity: %d isolated cores granted, %d exist",
				p.Kinds[k].Name, u, p.Kinds[k].Count)
		}
	}
	return nil
}

// CheckPlacement verifies the placement invariant of one solve: while a
// core kind has a core that no allocation holds, no co-allocated grant of
// that kind sits on a core an isolated allocation holds. Co-allocated
// applications share idle cores before they share an isolated application's
// cores; a placement that keeps standing grants must move one that breaks
// this. Grants off the platform are reported (CheckAllocations details
// them).
func CheckPlacement(p *platform.Platform, allocs []alloc.Allocation) error {
	nc := p.NumCores()
	used, iso := make([]bool, nc), make([]bool, nc)
	for _, al := range allocs {
		for _, g := range al.Grants {
			if g.Core < 0 || g.Core >= nc {
				return fmt.Errorf("check: %s: grant on core %d, off the platform", al.ID, g.Core)
			}
			used[g.Core] = true
			iso[g.Core] = iso[g.Core] || !al.CoAllocated
		}
	}
	for k, kind := range p.Kinds {
		lo, hi := p.CoreRange(platform.KindID(k))
		idle := slices.Index(used[lo:hi], false)
		if idle < 0 {
			continue
		}
		for _, al := range allocs {
			if !al.CoAllocated {
				continue
			}
			for _, g := range al.Grants {
				if g.Core >= lo && g.Core < hi && iso[g.Core] {
					return fmt.Errorf("check: co-allocated %s shares isolated core %d while %s core %d is idle",
						al.ID, g.Core, kind.Name, lo+idle)
				}
			}
		}
	}
	return nil
}

// CheckAgainstOracle runs the differential comparison for one instance: the
// heuristic solution must be structurally valid and hold the placement
// invariant (CheckPlacement), must never beat the exact
// optimum (that would mean the oracle — or the cost accounting — is wrong),
// and when the oracle proves the instance infeasible the solver must have
// co-allocated — claiming an isolated solution there is a hard bug.
//
// With strict set (the production Lagrangian contract), two more invariants
// apply on oracle-feasible instances: the solver must not give up spatial
// isolation where an isolated assignment exists, and its total cost must
// stay within CostBound of the exact optimum. The greedy ablation baseline
// is checked loosely — painting itself into a co-allocation corner is
// precisely the behaviour the Lagrangian solver exists to avoid.
func CheckAgainstOracle(p *platform.Platform, inputs []alloc.AppInput, allocs []alloc.Allocation, strict bool) error {
	if err := CheckAllocations(p, inputs, allocs); err != nil {
		return err
	}
	if err := CheckPlacement(p, allocs); err != nil {
		return err
	}
	inst := FromInputs(p, inputs)
	sol, err := inst.Solve()
	if err != nil {
		return fmt.Errorf("check: oracle: %v", err)
	}
	coAllocated := false
	for _, al := range allocs {
		if al.CoAllocated {
			coAllocated = true
		}
	}
	if !sol.Feasible {
		if !coAllocated {
			return fmt.Errorf("check: oracle proves infeasibility but the solver claims an isolated solution")
		}
		return nil // co-allocation is the designed answer to infeasibility
	}
	if coAllocated {
		if strict {
			return fmt.Errorf("check: solver co-allocated on an instance the oracle solves in isolation (optimal cost %.6g)", sol.Cost)
		}
		return nil
	}
	got := alloc.TotalCost(allocs, inputs)
	if got < sol.Cost-1e-9 && sol.Cost > 0 {
		return fmt.Errorf("check: solver cost %.6g beats the exact optimum %.6g — oracle or cost accounting broken", got, sol.Cost)
	}
	if strict && got > sol.Cost*CostBound+1e-9 {
		return fmt.Errorf("check: solver cost %.6g exceeds %.2f× the exact optimum %.6g", got, CostBound, sol.Cost)
	}
	return nil
}

// TimelineEntry is one applied decision in a run's timeline, reduced to what
// the isolation invariants need. harpsim.TimelineEvent converts 1:1.
type TimelineEntry struct {
	// AtSec is the virtual time of the decision.
	AtSec float64
	// Instance is the affected application instance.
	Instance string
	// Cores are the granted core IDs (empty = the instance's standing
	// allocation ended: parked, reaped, deregistered or exited).
	Cores []int
	// CoAllocated marks time-shared grants, exempt from isolation.
	CoAllocated bool
}

// CheckTimelineIsolation replays a timeline, maintaining every instance's
// standing allocation, and verifies that after each decision batch (events
// sharing a timestamp) no core is held by two non-co-allocated instances and
// the number of distinct granted cores never exceeds the platform. This is
// the full-run form of the no-double-grant and capacity-conservation
// invariants, and it holds across quarantines and reaps because those emit
// core-clearing events.
func CheckTimelineIsolation(p *platform.Platform, timeline []TimelineEntry) error {
	standing := make(map[string][]int)
	coAlloc := make(map[string]bool)
	nCores := p.NumCores()
	check := func(atSec float64) error {
		owner := make(map[int]string)
		distinct := make(map[int]bool)
		for inst, cores := range standing {
			for _, c := range cores {
				if c < 0 || c >= nCores {
					return fmt.Errorf("check: t=%.3fs: %s granted nonexistent core %d", atSec, inst, c)
				}
				distinct[c] = true
				if coAlloc[inst] {
					continue
				}
				if other, ok := owner[c]; ok {
					return fmt.Errorf("check: t=%.3fs: core %d granted to both %s and %s", atSec, c, other, inst)
				}
				owner[c] = inst
			}
		}
		if len(distinct) > nCores {
			return fmt.Errorf("check: t=%.3fs: %d distinct cores granted on a %d-core platform", atSec, len(distinct), nCores)
		}
		return nil
	}
	for i, ev := range timeline {
		if len(ev.Cores) == 0 {
			delete(standing, ev.Instance)
			delete(coAlloc, ev.Instance)
		} else {
			standing[ev.Instance] = ev.Cores
			coAlloc[ev.Instance] = ev.CoAllocated
		}
		// Decisions of one epoch share a timestamp; the push order inside an
		// epoch is unspecified, so invariants hold at batch boundaries.
		if i+1 == len(timeline) || timeline[i+1].AtSec != ev.AtSec {
			if err := check(ev.AtSec); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckJournal verifies a decision journal's internal contract: epochs
// numbered 1..n with non-decreasing timestamps, every epoch carrying a
// trigger, and decision sequence numbers strictly increasing across the
// whole stream — the property that makes the concatenated outputs exactly
// the pushed-decision stream.
func CheckJournal(records []telemetry.EpochRecord) error {
	lastAt := math.Inf(-1)
	lastSeq := 0
	for i, rec := range records {
		if rec.Epoch != i+1 {
			return fmt.Errorf("check: journal record %d numbered epoch %d", i, rec.Epoch)
		}
		if rec.Trigger == "" {
			return fmt.Errorf("check: epoch %d has no trigger", rec.Epoch)
		}
		if rec.AtSec < lastAt {
			return fmt.Errorf("check: epoch %d at %.3fs precedes epoch %d at %.3fs",
				rec.Epoch, rec.AtSec, i, lastAt)
		}
		lastAt = rec.AtSec
		for _, out := range rec.Outputs {
			if out.Seq <= lastSeq {
				return fmt.Errorf("check: epoch %d: decision seq %d after seq %d — journal and push stream disagree",
					rec.Epoch, out.Seq, lastSeq)
			}
			lastSeq = out.Seq
		}
	}
	return nil
}

// CheckJournalMatchesPushed verifies that the journal's concatenated outputs
// are exactly the pushed-decision stream observed by a decision callback, in
// order and field by field.
func CheckJournalMatchesPushed(records []telemetry.EpochRecord, pushed []telemetry.EpochOutput) error {
	var outs []telemetry.EpochOutput
	for _, rec := range records {
		outs = append(outs, rec.Outputs...)
	}
	if len(outs) != len(pushed) {
		return fmt.Errorf("check: journal records %d decisions, %d were pushed", len(outs), len(pushed))
	}
	for i := range outs {
		if outs[i] != pushed[i] {
			return fmt.Errorf("check: decision %d: journal %+v ≠ pushed %+v", i, outs[i], pushed[i])
		}
	}
	return nil
}
