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
	"slices"
	"sort"
	"strings"
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
// A table is written only by its builder, and never once it leaves it:
// handed to an allocator, a snapshot, a caller or a Decision, a table and
// the resource vectors of its points are shared and read-only. A table that
// learns something new is replaced by a copy (Merge), never edited, so a
// reader holding the old pointer keeps a consistent view without copying
// it. See DESIGN.md ("Table facts").
//
// The table memoises its derived Facts (content hash, v*, footprint, Pareto
// front) and its last clean validation, because the allocator reads them for
// every application on every reallocation. A builder's Upsert and Sort keep
// them current; a builder that edits Points in place calls Invalidate, and
// appends that change len(Points) are detected without it. Concurrent
// read-only use is safe and lock-free.
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
// once, on the first read after a mutation, and are read-only. The usable
// Pareto front — the one fact that is super-linear to compute and that the
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
	// n is the len(Points) the facts describe.
	n int
	// front is the usable runtime Pareto front in solver order, nil until
	// ParetoPoints.
	front atomic.Pointer[[]OperatingPoint]
}

// validation remembers the platform a table content last validated cleanly
// against, and the len(Points) it covered.
type validation struct {
	plat *platform.Platform
	n    int
}

// Invalidate drops every memoised derived value. A builder that edits Points
// in place (rather than through Upsert) calls it before the table leaves it;
// length changes are detected without it. A table that has left its builder
// is never edited, so no reader needs it.
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
	t.set(t.index(op.Vector, -1), op)
	t.Invalidate()
}

// Merge returns the table with every point of ops upserted in order, each
// marked measured when measured is set. The receiver is never written: an
// ops that changes nothing returns the receiver itself, allocating nothing
// and keeping its memoised facts; otherwise the result is a new table whose
// unchanged points share the receiver's vectors. On a table whose vectors
// are distinct — which Upsert and Merge keep them — the content equals an
// Upsert loop's. It is built for re-uploads: a description arrives in its
// own enumeration order, so each point is first tried against the slot at
// its own index, and merging a table into one holding the same vectors costs
// O(n) comparisons instead of O(n²).
func (t *Table) Merge(ops []OperatingPoint, measured bool) *Table {
	out := t
	for i, op := range ops {
		op.Measured = op.Measured || measured
		j := out.index(op.Vector, i)
		if j >= 0 && out.Points[j].sameValues(op) {
			continue // same vector, same values: nothing to write
		}
		if out == t {
			out = t.Clone()
		}
		out.set(j, op)
	}
	return out
}

// index returns the position of the point with vector rv, trying index hint
// before the scan, or -1. With distinct vectors a hit at the hint is the
// only match, so the hint never changes the outcome.
func (t *Table) index(rv platform.ResourceVector, hint int) int {
	if hint >= 0 && hint < len(t.Points) && t.Points[hint].Vector.Equal(rv) {
		return hint
	}
	for j := range t.Points {
		if t.Points[j].Vector.Equal(rv) {
			return j
		}
	}
	return -1
}

// set appends op (i < 0) or replaces point i with it, keeping the stored,
// equal vector: a decoded upload's vectors share one backing array
// (internal/proto), which one adopted vector would pin.
func (t *Table) set(i int, op OperatingPoint) {
	if i < 0 {
		t.Points = append(t.Points, op)
		return
	}
	op.Vector = t.Points[i].Vector
	t.Points[i] = op
}

// sameValues reports whether o carries op's values: replacing it by op would
// write nothing.
func (o *OperatingPoint) sameValues(op OperatingPoint) bool {
	return o.Utility == op.Utility && o.Power == op.Power && o.Measured == op.Measured && o.Samples == op.Samples
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

// Clone returns a copy of the table that owns its points and shares their
// vectors, which are never written (see Table).
func (t *Table) Clone() *Table {
	return &Table{App: t.App, Platform: t.Platform, Points: slices.Clone(t.Points)}
}

// Pareto returns the subset of xs that is Pareto-optimal under the given
// objectives, all minimised. A point is kept unless another point is no
// worse in every objective and strictly better in at least one; duplicated
// objective rows keep a single representative, the earliest in xs. The front
// comes out in lexicographic objective order.
//
// objectives appends x's objective row to dst and returns the extended
// slice; every row must have the same length. The rows of one call share a
// single buffer, so extraction costs no allocation per point.
//
// Implementation: points are processed in lexicographic objective order. Any
// dominator of a point precedes it in that order, and by transitivity a
// non-dominated dominator exists on the running front, so each point only
// needs to be checked against the (small) front built so far. This is the
// allocator's hot path — tables can hold hundreds of points per application.
func Pareto[T any](xs []T, objectives func(dst []float64, x T) []float64) []T {
	if len(xs) == 0 {
		return nil
	}
	flat := objectives(nil, xs[0])
	width := len(flat)
	flat = slices.Grow(flat, width*(len(xs)-1))
	for _, x := range xs[1:] {
		flat = objectives(flat, x)
	}
	row := func(i int) []float64 { return flat[i*width : (i+1)*width : (i+1)*width] }
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := slices.Compare(row(i), row(j)); c != 0 {
			return c
		}
		return i - j
	})

	front := order[:0] // the front only ever trails the scan
	for _, i := range order {
		dominated := false
		for _, f := range front {
			if d := dominanceOf(row(f), row(i)); d == strictlyDominates || d == equalObjectives {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	out := make([]T, len(front))
	for n, i := range front {
		out[n] = xs[i]
	}
	return out
}

type dominance int

const (
	noDominance dominance = iota
	strictlyDominates
	equalObjectives
)

// dominanceOf reports how a relates to b for minimisation objectives. It
// returns as soon as a is worse in one objective, which is the common case
// when a point is checked against a front it belongs on.
func dominanceOf(a, b []float64) dominance {
	anyLT := false
	for k := range a {
		if a[k] > b[k] {
			return noDominance
		}
		if a[k] < b[k] {
			anyLT = true
		}
	}
	if anyLT {
		return strictlyDominates
	}
	return equalObjectives
}

// RuntimeObjectives is the objective extractor used by the runtime allocator
// (§4.2.2): minimise power, maximise utility (negated), and minimise the
// per-kind core footprint. It appends op's row to dst (see Pareto).
func RuntimeObjectives(dst []float64, op OperatingPoint) []float64 {
	dst = append(dst, -op.Utility, op.Power)
	for kind := range op.Vector.Counts {
		dst = append(dst, float64(op.Vector.Cores(platform.KindID(kind))))
	}
	return dst
}

// ParetoPoints filters the table down to its usable runtime Pareto front:
// runtimeFront of the points that are Usable at v*, in solver order — by
// cost at v* (Facts.VStar), ties broken by Vector.Key() and then by
// runtimeFront's order. The allocator's candidate list is this front in this
// order, so a solve sorts nothing. The front is memoised with the table's
// facts until the table changes; callers must treat the returned slice as
// read-only: every solve over the table reads it.
//
// Unusable points — zero vectors and points whose cost guard yields a
// non-finite cost (e.g. a zero-power measurement) — are dropped BEFORE the
// Pareto filter. The runtime objectives score low power and low demand as
// better, so a degenerate zero-power or zero-vector point dominates every
// honest point and, filtered afterwards, would evict the whole usable front
// and silently collapse the application onto the allocator's free fallback
// candidate (found by the differential oracle; see DESIGN.md §6). Among
// usable points domination is cost-monotone — higher utility and lower power
// both lower cost = power/v̂² — so filtering first keeps the front lossless.
func (t *Table) ParetoPoints() []OperatingPoint {
	f := t.Facts()
	if front := f.front.Load(); front != nil {
		return *front
	}
	front := runtimeFront(t.Points, func(op *OperatingPoint) bool { return op.Usable(f.VStar) }, f.VStar)
	f.front.Store(&front)
	return front
}

// runtimeFrontMaxCells caps runtimeFront's demand grid; a table whose
// per-kind core demands span more cells takes the generic scan.
const runtimeFrontMaxCells = 4096

// frontKey is one point in runtimeFront's scan order: its RuntimeObjectives
// row, with the per-kind cores folded into their demand-grid cell.
type frontKey struct {
	negUtil, power float64
	cell, idx      int32
}

// runtimeFront returns Pareto(kept, RuntimeObjectives), element for element,
// kept being the points keep reports true for, in order — every point when
// keep is nil. It skips the others without copying the rest, and tests each
// kept point with one lookup in a grid over core demand instead of a scan of
// the front built so far. When vstar is positive the front comes permuted
// into solver order by cost at vstar (see ParetoPoints); the grid path sorts
// the front's keys before it copies the points out, so the order costs no
// allocation.
//
// Pareto scans rows in lexicographic order — utility descending, then power,
// then cores per kind, then index — so every point already on the front has
// at least the utility of the point under test. That point is therefore
// dropped exactly when some front point uses no more cores of any kind and
// no more power. best[cell] keeps the least power of any front point whose
// core demand fits inside cell, which makes the test one lookup; a point
// joining the front lowers best over the box of cells containing its demand.
// Cells are laid out with kind 0 most significant, so comparing cells
// compares the per-kind cores lexicographically, as Pareto's rows do.
//
// Tables the grid cannot represent exactly take the generic scan: kept
// points with kind counts other than the first point's or negative demands,
// non-finite utilities or powers (where the lexicographic order and the
// comparisons part ways), and demand grids past runtimeFrontMaxCells.
func runtimeFront(points []OperatingPoint, keep func(*OperatingPoint) bool, vstar float64) []OperatingPoint {
	if len(points) == 0 {
		return nil
	}
	generic := func() []OperatingPoint {
		if keep != nil {
			points = slices.DeleteFunc(slices.Clone(points), func(op OperatingPoint) bool { return !keep(&op) })
		}
		front := Pareto(points, RuntimeObjectives)
		if vstar <= 0 {
			return front
		}
		keys := make([]frontKey, len(front))
		for i := range front {
			keys[i] = frontKey{negUtil: -front[i].Utility, power: front[i].Power, idx: int32(i)}
		}
		solverOrder(keys, front, vstar)
		return copyOut(keys, front)
	}
	nk := len(points[0].Vector.Counts)
	dims := make([]int, 4*nk)
	// ext[k] bounds kind k's demand; stride[k] is the product of the extents
	// of the kinds after k; lo and at walk the box a front point lowers.
	ext, stride, lo, at := dims[:nk], dims[nk:2*nk], dims[2*nk:3*nk], dims[3*nk:]
	keys := make([]frontKey, 0, len(points))
	for i := range points {
		p := &points[i]
		if keep != nil && !keep(p) {
			continue
		}
		if len(p.Vector.Counts) != nk || !finite(p.Utility) || !finite(p.Power) {
			return generic()
		}
		for k := range ext {
			c := p.Vector.Cores(platform.KindID(k))
			if c < 0 || c >= runtimeFrontMaxCells {
				return generic()
			}
			ext[k] = max(ext[k], c+1)
		}
		keys = append(keys, frontKey{negUtil: -p.Utility, power: p.Power, idx: int32(i)})
	}
	if len(keys) == 0 {
		return nil
	}
	cells := 1
	for k := nk - 1; k >= 0; k-- {
		stride[k] = cells
		if cells *= ext[k]; cells > runtimeFrontMaxCells {
			return generic()
		}
	}

	for i := range keys {
		v := points[keys[i].idx].Vector
		cell := 0
		for k, s := range stride {
			cell += v.Cores(platform.KindID(k)) * s
		}
		keys[i].cell = int32(cell)
	}
	slices.SortFunc(keys, frontKey.compare)

	best := make([]float64, cells)
	for i := range best {
		best[i] = math.Inf(1)
	}
	front := keys[:0] // the front only ever trails the scan
	for _, key := range keys {
		if best[key.cell] <= key.power {
			continue
		}
		front = append(front, key)
		// Lower best over the box of cells at or above the point's demand in
		// every kind, walking it like an odometer with the last kind fastest.
		cell := int(key.cell)
		for k := range lo {
			lo[k] = cell / stride[k] % ext[k]
			at[k] = lo[k]
		}
		for k := 0; k >= 0; {
			best[cell] = min(best[cell], key.power)
			for k = nk - 1; k >= 0; k-- {
				if at[k]+1 < ext[k] {
					at[k]++
					cell += stride[k]
					break
				}
				cell -= (at[k] - lo[k]) * stride[k]
				at[k] = lo[k]
			}
		}
	}
	if vstar > 0 {
		solverOrder(front, points, vstar)
	}
	return copyOut(front, points)
}

// compare orders keys as Pareto scans rows: utility descending, then power,
// then cores per kind, then index. It compares field by field with early
// exit; every value is finite, so the plain comparisons order exactly as
// cmp.Compare would.
func (x frontKey) compare(y frontKey) int {
	switch {
	case x.negUtil != y.negUtil:
		return compareLess(x.negUtil < y.negUtil)
	case x.power != y.power:
		return compareLess(x.power < y.power)
	case x.cell != y.cell:
		return compareLess(x.cell < y.cell)
	case x.idx != y.idx:
		return compareLess(x.idx < y.idx)
	}
	return 0
}

// solverOrder sorts front, the keys of a usable front over points in
// runtimeFront's order, into solver order: by cost at vstar, then by vector
// key, then as before. Usable points have finite costs, so the plain
// comparisons order exactly as cmp.Compare would.
func solverOrder(front []frontKey, points []OperatingPoint, vstar float64) {
	slices.SortFunc(front, func(x, y frontKey) int {
		if cx, cy := x.cost(vstar), y.cost(vstar); cx != cy {
			return compareLess(cx < cy)
		}
		if x == y {
			return 0
		}
		if c := strings.Compare(points[x.idx].Vector.Key(), points[y.idx].Vector.Key()); c != 0 {
			return c
		}
		return x.compare(y)
	})
}

// cost is the key's point's cost at vstar (OperatingPoint.Cost).
func (x frontKey) cost(vstar float64) float64 {
	return OperatingPoint{Utility: -x.negUtil, Power: x.power}.Cost(vstar)
}

// copyOut returns the points the keys index, in key order.
func copyOut(keys []frontKey, points []OperatingPoint) []OperatingPoint {
	out := make([]OperatingPoint, len(keys))
	for n, key := range keys {
		out[n] = points[key.idx]
	}
	return out
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// compareLess is a comparator's result for two keys known to differ: -1 when
// the first sorts first.
func compareLess(less bool) int {
	if less {
		return -1
	}
	return 1
}
