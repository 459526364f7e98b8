// Package opoint implements HARP's operating points (§4.1.2): the central
// data structure linking the resource manager and libharp. An operating
// point couples an extended resource vector with the instant non-functional
// characteristics HARP optimises on — utility (IPS or an app-specific
// metric) and power — and carries the energy-utility cost ζ used by the
// allocation problem (Eq. 1, Eq. 2).
package opoint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/harp-rm/harp/internal/platform"
)

// OperatingPoint is one configuration variant of an application.
type OperatingPoint struct {
	// Vector is the coarse-grained extended resource vector.
	Vector platform.ResourceVector `json:"vector"`
	// Utility is the instant useful-work metric o[v] (IPS by default).
	Utility float64 `json:"utility"`
	// Power is the CPU power o[p] attributed to the application in watts.
	Power float64 `json:"power"`
	// Measured distinguishes measured points from regression-predicted ones
	// during runtime exploration (§5).
	Measured bool `json:"measured,omitempty"`
	// Samples counts the measurements folded into Utility/Power.
	Samples int `json:"samples,omitempty"`
}

// Cost returns the energy-utility cost ζ of the point (Eq. 2):
// ζ = (p / v̂) · (1 / v̂) with v̂ = v / v*, the utility normalised by the
// application's maximum observed utility. Lower is better. A non-positive
// utility yields +Inf (the point does no useful work), as does a
// non-positive power (no real configuration draws zero power; such values
// are measurement or prediction artefacts and must not win the
// minimisation).
func (o OperatingPoint) Cost(maxUtility float64) float64 {
	if o.Utility <= 0 || maxUtility <= 0 || o.Power <= 0 {
		return math.Inf(1)
	}
	vhat := o.Utility / maxUtility
	return o.Power / (vhat * vhat)
}

// Usable reports whether the allocator may select the point under v*: a
// non-zero vector with a finite cost. Points failing it — zero vectors,
// zero-power measurements, non-positive utilities — never become candidates.
func (o OperatingPoint) Usable(maxUtility float64) bool {
	if o.Vector.IsZero() {
		return false
	}
	c := o.Cost(maxUtility)
	return !math.IsInf(c, 1) && !math.IsNaN(c)
}

// Table is an application's set of operating points.
//
// The table memoises its derived Facts (content hash, v*, footprint, Pareto
// front) and its last clean validation, because the allocator reads them for
// every application on every reallocation. All mutations must go through
// Upsert/Sort, or call Invalidate after modifying Points in place; appends
// that change len(Points) are detected without it. See DESIGN.md ("Table
// facts"). Tables must not be mutated while another goroutine reads them,
// but concurrent read-only use is safe and lock-free.
type Table struct {
	// App names the application the table belongs to.
	App string `json:"app"`
	// Platform names the hardware the characteristics were collected on.
	Platform string `json:"platform"`
	// Points holds the operating points in no particular order.
	Points []OperatingPoint `json:"points"`

	// facts is nil until the first read after a mutation, valid until the
	// first clean Validate. Concurrent first readers compute equal values,
	// so whichever store lands last wins and no lock is needed.
	facts atomic.Pointer[Facts]
	valid atomic.Pointer[validation]
}

// Facts are the values derived from one table content. They are computed
// once, on the first read after a mutation, and are read-only. The Pareto
// front — the one fact that is super-linear to compute and that the
// allocator reads only for the applications it re-solves — is filled in on
// the first ParetoPoints call.
type Facts struct {
	// Hi and Lo are the 128-bit content hash over everything the allocator
	// reads from a table: app and platform names, and per point in order its
	// utility, power, measured flag and vector.
	Hi, Lo uint64
	// VStar is the maximum utility across the table (0 if empty).
	VStar float64
	// MinCost is the cheapest usable point's cost at VStar; 0 when no point
	// is usable (the allocator's free fallback candidate).
	MinCost float64
	// Footprint is the bitmask of core kinds any point usable at VStar
	// demands; 0 when no point is usable.
	Footprint uint64
	// n is the len(Points) the facts describe.
	n int
	// front is the runtime Pareto front, nil until ParetoPoints.
	front atomic.Pointer[[]OperatingPoint]
}

// validation remembers the platform a table content last validated cleanly
// against, and the len(Points) it covered.
type validation struct {
	plat *platform.Platform
	n    int
}

// Invalidate drops every memoised derived value. Callers that modify Points
// in place (rather than through Upsert) must call it before the next read of
// a derived value, otherwise stale values may be served. Length changes are
// detected automatically; in-place edits are not.
func (t *Table) Invalidate() {
	t.facts.Store(nil)
	t.valid.Store(nil)
}

// Facts returns the table's derived values, computing them on the first
// read after a mutation.
func (t *Table) Facts() *Facts {
	if f := t.facts.Load(); f != nil && f.n == len(t.Points) {
		return f
	}
	f := &Facts{n: len(t.Points)}
	h := NewHasher()
	h.Str(t.App)
	h.Str(t.Platform)
	h.U64(uint64(len(t.Points)))
	for i := range t.Points {
		p := &t.Points[i]
		h.F64(p.Utility)
		h.F64(p.Power)
		if p.Measured {
			h.U64(1)
		} else {
			h.U64(0)
		}
		h.U64(uint64(len(p.Vector.Counts)))
		for _, counts := range p.Vector.Counts {
			h.U64(uint64(len(counts)))
			for _, c := range counts {
				h.U64(uint64(c))
			}
		}
		if p.Utility > f.VStar {
			f.VStar = p.Utility
		}
	}
	f.Hi, f.Lo = h.Hi, h.Lo
	haveMin := false
	for i := range t.Points {
		p := &t.Points[i]
		if !p.Usable(f.VStar) {
			continue
		}
		if c := p.Cost(f.VStar); !haveMin || c < f.MinCost {
			f.MinCost, haveMin = c, true
		}
		f.Footprint |= p.Vector.KindMask()
	}
	t.facts.Store(f)
	return f
}

// Validate checks the table against a platform description. A clean result
// is memoised for that platform until the table changes.
func (t *Table) Validate(p *platform.Platform) error {
	if t.App == "" {
		return errors.New("opoint: table without application name")
	}
	if v := t.valid.Load(); v != nil && v.plat == p && v.n == len(t.Points) {
		return nil
	}
	for i, op := range t.Points {
		if err := op.Vector.Validate(p); err != nil {
			return fmt.Errorf("opoint: %s point %d: %w", t.App, i, err)
		}
		if math.IsNaN(op.Utility) || math.IsNaN(op.Power) || op.Power < 0 {
			return fmt.Errorf("opoint: %s point %d: bad characteristics (v=%g, p=%g)",
				t.App, i, op.Utility, op.Power)
		}
	}
	t.valid.Store(&validation{plat: p, n: len(t.Points)})
	return nil
}

// MaxUtility returns v*, the maximum utility across the table (0 if empty).
func (t *Table) MaxUtility() float64 { return t.Facts().VStar }

// Lookup returns the point with the given resource vector, if present.
func (t *Table) Lookup(rv platform.ResourceVector) (OperatingPoint, bool) {
	for _, op := range t.Points {
		if op.Vector.Equal(rv) {
			return op, true
		}
	}
	return OperatingPoint{}, false
}

// Upsert inserts the point or replaces an existing one with the same vector.
func (t *Table) Upsert(op OperatingPoint) {
	defer t.Invalidate()
	for i := range t.Points {
		if t.Points[i].Vector.Equal(op.Vector) {
			t.Points[i] = op
			return
		}
	}
	t.Points = append(t.Points, op)
}

// MeasuredCount returns the number of measured (not predicted) points.
func (t *Table) MeasuredCount() int {
	var n int
	for _, op := range t.Points {
		if op.Measured {
			n++
		}
	}
	return n
}

// Sort orders points deterministically by vector key. Order matters to the
// content hash and the Pareto front (duplicate-objective ties keep the
// earliest point), so sorting invalidates the facts.
func (t *Table) Sort() {
	sort.Slice(t.Points, func(i, j int) bool {
		return t.Points[i].Vector.Key() < t.Points[j].Vector.Key()
	})
	t.Invalidate()
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{App: t.App, Platform: t.Platform, Points: make([]OperatingPoint, len(t.Points))}
	for i, op := range t.Points {
		op.Vector = op.Vector.Clone()
		out.Points[i] = op
	}
	return out
}

// Pareto returns the subset of xs that is Pareto-optimal under the given
// objectives, all minimised. A point is kept unless another point is no
// worse in every objective and strictly better in at least one; duplicated
// objective rows keep a single representative.
//
// Implementation: points are processed in lexicographic objective order. Any
// dominator of a point precedes it in that order, and by transitivity a
// non-dominated dominator exists on the running front, so each point only
// needs to be checked against the (small) front built so far. This is the
// allocator's hot path — tables can hold hundreds of points per application.
func Pareto[T any](xs []T, objectives func(T) []float64) []T {
	if len(xs) == 0 {
		return nil
	}
	type entry struct {
		obj []float64
		idx int
	}
	entries := make([]entry, len(xs))
	for i, x := range xs {
		entries[i] = entry{obj: objectives(x), idx: i}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].obj, entries[j].obj
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return entries[i].idx < entries[j].idx
	})

	var front []entry
	for _, e := range entries {
		dominated := false
		for _, f := range front {
			if d := dominanceOf(f.obj, e.obj); d == strictlyDominates || d == equalObjectives {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	out := make([]T, len(front))
	for i, f := range front {
		out[i] = xs[f.idx]
	}
	return out
}

type dominance int

const (
	noDominance dominance = iota
	strictlyDominates
	equalObjectives
)

// dominanceOf reports how a relates to b for minimisation objectives.
func dominanceOf(a, b []float64) dominance {
	allLEQ := true
	anyLT := false
	allEQ := true
	for k := range a {
		if a[k] > b[k] {
			allLEQ = false
		}
		if a[k] < b[k] {
			anyLT = true
		}
		if a[k] != b[k] {
			allEQ = false
		}
	}
	switch {
	case allLEQ && anyLT:
		return strictlyDominates
	case allEQ:
		return equalObjectives
	default:
		return noDominance
	}
}

// RuntimeObjectives is the objective extractor used by the runtime allocator
// (§4.2.2): minimise power, maximise utility (negated), and minimise the
// per-kind core footprint.
func RuntimeObjectives(op OperatingPoint) []float64 {
	demand := op.Vector.CoreDemand()
	objs := make([]float64, 0, 2+len(demand))
	objs = append(objs, -op.Utility, op.Power)
	for _, d := range demand {
		objs = append(objs, float64(d))
	}
	return objs
}

// ParetoPoints filters the table down to its runtime Pareto front. The front
// is memoised with the table's facts until the table changes; callers must
// treat the returned slice as read-only (the allocator and harpctl only
// iterate it).
func (t *Table) ParetoPoints() []OperatingPoint {
	f := t.Facts()
	if front := f.front.Load(); front != nil {
		return *front
	}
	front := Pareto(t.Points, RuntimeObjectives)
	f.front.Store(&front)
	return front
}
