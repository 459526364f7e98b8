// Package check is the allocator correctness harness: an exact MMKP
// reference solver used as a differential oracle against the production
// solvers, a seeded random instance generator with counterexample shrinking,
// and a reusable invariant suite asserted over single allocator solves and
// over full simulated runs.
//
// The package deliberately re-derives everything it checks from first
// principles — candidate costs, feasibility, optimal assignments — instead of
// reusing the allocator's own plumbing, so a bug in internal/alloc cannot
// hide itself from the oracle. See DESIGN.md §6 for how to run the harness
// and how to read a shrunk counterexample.
package check

import (
	"fmt"
	"math"
	"strings"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/platform"
)

// Cand is one candidate operating point of an Instance application: its
// energy-utility cost and its per-kind physical core demand.
type Cand struct {
	// Cost is the point's energy-utility cost ζ (lower is better).
	Cost float64
	// Demand is the per-kind physical core demand.
	Demand []int
}

// App is one application of an Instance.
type App struct {
	// ID identifies the application.
	ID string
	// Cands are the candidate points. Exactly one must be chosen.
	Cands []Cand
}

// Instance is a standalone multiple-choice multi-dimensional knapsack
// instance: pick one candidate per application minimising total cost subject
// to per-kind capacity. It is the oracle's input format, decoupled from
// operating-point tables so oracle tests can construct adversarial instances
// directly.
type Instance struct {
	// Capacity is the per-kind core capacity.
	Capacity []int
	// Apps are the competing applications.
	Apps []App
}

// FromInputs derives the MMKP instance the allocator faces for the given
// inputs. Candidates come from the full operating-point tables (not the
// Pareto-filtered fronts the allocator scans), so the oracle also witnesses
// that Pareto filtering never discards every optimal solution. The
// candidate-building rules mirror alloc.Allocator: zero vectors and
// non-finite costs are unusable, and an application without a single usable
// point falls back to one core of the most efficient kind at neutral cost.
func FromInputs(p *platform.Platform, inputs []alloc.AppInput) Instance {
	inst := Instance{Capacity: make([]int, len(p.Kinds))}
	for k, kind := range p.Kinds {
		inst.Capacity[k] = kind.Count
	}
	for _, in := range inputs {
		app := App{ID: in.ID}
		if in.Table != nil {
			vstar := in.Table.MaxUtility()
			for _, op := range in.Table.Points {
				if op.Vector.IsZero() {
					continue
				}
				cost := op.Cost(vstar)
				if math.IsInf(cost, 1) || math.IsNaN(cost) {
					continue
				}
				app.Cands = append(app.Cands, Cand{Cost: cost, Demand: op.Vector.CoreDemand()})
			}
		}
		if len(app.Cands) == 0 {
			demand := make([]int, len(p.Kinds))
			demand[len(p.Kinds)-1] = 1
			app.Cands = append(app.Cands, Cand{Cost: 0, Demand: demand})
		}
		inst.Apps = append(inst.Apps, app)
	}
	return inst
}

// Size returns the number of candidate combinations the instance spans — the
// search-space bound the oracle refuses to exceed.
func (inst Instance) Size() float64 {
	size := 1.0
	for _, app := range inst.Apps {
		size *= float64(len(app.Cands))
	}
	return size
}

// FormatInstance renders an allocator instance compactly for counterexample
// logs: the platform's per-kind capacity and every application's points as
// (vector, utility, power) triples. Paste-able into a regression test.
func FormatInstance(p *platform.Platform, inputs []alloc.AppInput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform %s:", p.Name)
	for _, k := range p.Kinds {
		fmt.Fprintf(&b, " %d×%s(smt%d)", k.Count, k.Name, k.SMT)
	}
	b.WriteByte('\n')
	for _, in := range inputs {
		fmt.Fprintf(&b, "app %s:\n", in.ID)
		if in.Table == nil {
			b.WriteString("  <nil table>\n")
			continue
		}
		for _, op := range in.Table.Points {
			fmt.Fprintf(&b, "  {Vector: %s, Utility: %g, Power: %g, Measured: %v}\n",
				op.Vector, op.Utility, op.Power, op.Measured)
		}
	}
	return b.String()
}

// ReproLine returns the one-line `go test` command that replays a seeded
// subtest failure, e.g. ReproLine("./internal/alloc/", "TestDifferentialSmallInstances", 17).
func ReproLine(pkg, test string, seed int64) string {
	return fmt.Sprintf("go test -race -run '^%s$/^seed=%d$' %s", test, seed, pkg)
}
