package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// ResourceVector is HARP's extended resource vector (§4.1.2): for every core
// kind it counts how many cores run with exactly t hardware threads in use.
// For the Raptor Lake example from the paper — 3 P-cores of which one uses a
// single hardware thread and two use both, plus 4 E-cores — the vector is
// [1 2 | 4]: Counts[P] = [1, 2], Counts[E] = [4].
//
// The zero value is not usable; construct with NewResourceVector.
type ResourceVector struct {
	// Counts[kind][t-1] is the number of kind cores using t hardware threads.
	Counts [][]int `json:"counts"`
}

// NewResourceVector returns an all-zero vector shaped for the platform.
func NewResourceVector(p *Platform) ResourceVector {
	counts := make([][]int, len(p.Kinds))
	for i, k := range p.Kinds {
		counts[i] = make([]int, k.SMT)
	}
	return ResourceVector{Counts: counts}
}

// VectorOf is a convenience constructor from per-kind slices, e.g.
// VectorOf(p, []int{1, 2}, []int{4}) for the paper's [1 2 | 4] example.
func VectorOf(p *Platform, perKind ...[]int) (ResourceVector, error) {
	rv := NewResourceVector(p)
	if len(perKind) != len(p.Kinds) {
		return rv, fmt.Errorf("platform: vector with %d kinds for %d-kind platform",
			len(perKind), len(p.Kinds))
	}
	for kind, counts := range perKind {
		if len(counts) != p.Kinds[kind].SMT {
			return rv, fmt.Errorf("platform: kind %s expects %d slots, got %d",
				p.Kinds[kind].Name, p.Kinds[kind].SMT, len(counts))
		}
		copy(rv.Counts[kind], counts)
	}
	return rv, rv.Validate(p)
}

// Validate checks shape and non-negativity against the platform, and that no
// kind demands more cores than exist.
func (rv ResourceVector) Validate(p *Platform) error {
	if len(rv.Counts) != len(p.Kinds) {
		return fmt.Errorf("platform: vector has %d kinds, platform has %d",
			len(rv.Counts), len(p.Kinds))
	}
	for kind, counts := range rv.Counts {
		if len(counts) != p.Kinds[kind].SMT {
			return fmt.Errorf("platform: kind %s vector has %d slots, want %d",
				p.Kinds[kind].Name, len(counts), p.Kinds[kind].SMT)
		}
		total := 0
		for t, c := range counts {
			if c < 0 {
				return fmt.Errorf("platform: kind %s has %d cores at %d threads",
					p.Kinds[kind].Name, c, t+1)
			}
			total += c
		}
		if total > p.Kinds[kind].Count {
			return fmt.Errorf("platform: kind %s demands %d cores, only %d exist",
				p.Kinds[kind].Name, total, p.Kinds[kind].Count)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (rv ResourceVector) Clone() ResourceVector {
	counts := make([][]int, len(rv.Counts))
	for i, c := range rv.Counts {
		counts[i] = make([]int, len(c))
		copy(counts[i], c)
	}
	return ResourceVector{Counts: counts}
}

// Equal reports whether two vectors are identical in shape and counts.
func (rv ResourceVector) Equal(other ResourceVector) bool {
	if len(rv.Counts) != len(other.Counts) {
		return false
	}
	for i := range rv.Counts {
		if len(rv.Counts[i]) != len(other.Counts[i]) {
			return false
		}
		for j := range rv.Counts[i] {
			if rv.Counts[i][j] != other.Counts[i][j] {
				return false
			}
		}
	}
	return true
}

// IsZero reports whether the vector requests no resources at all.
func (rv ResourceVector) IsZero() bool {
	for _, counts := range rv.Counts {
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
	}
	return true
}

// Cores returns the number of physical cores of the given kind in use.
func (rv ResourceVector) Cores(kind KindID) int {
	if int(kind) >= len(rv.Counts) {
		return 0
	}
	var n int
	for _, c := range rv.Counts[kind] {
		n += c
	}
	return n
}

// KindMask returns the bitmask of kinds the vector demands cores of (bit k
// for kind k).
func (rv ResourceVector) KindMask() uint64 {
	var m uint64
	for kind := range rv.Counts {
		if rv.Cores(KindID(kind)) > 0 {
			m |= 1 << uint(kind)
		}
	}
	return m
}

// TotalCores returns the number of physical cores in use across all kinds.
func (rv ResourceVector) TotalCores() int {
	var n int
	for kind := range rv.Counts {
		n += rv.Cores(KindID(kind))
	}
	return n
}

// Threads returns the total number of hardware threads in use.
func (rv ResourceVector) Threads() int {
	var n int
	for _, counts := range rv.Counts {
		for t, c := range counts {
			n += (t + 1) * c
		}
	}
	return n
}

// ThreadsOfKind returns the hardware threads in use on one kind.
func (rv ResourceVector) ThreadsOfKind(kind KindID) int {
	if int(kind) >= len(rv.Counts) {
		return 0
	}
	var n int
	for t, c := range rv.Counts[kind] {
		n += (t + 1) * c
	}
	return n
}

// CoreDemand returns the per-kind physical core demand — the multidimensional
// weight used in the MMKP resource constraint (Eq. 1b).
func (rv ResourceVector) CoreDemand() []int {
	demand := make([]int, len(rv.Counts))
	for kind := range rv.Counts {
		demand[kind] = rv.Cores(KindID(kind))
	}
	return demand
}

// Add returns rv + other element-wise. Shapes must match.
func (rv ResourceVector) Add(other ResourceVector) (ResourceVector, error) {
	if !sameShape(rv, other) {
		return ResourceVector{}, fmt.Errorf("platform: adding vectors of different shapes")
	}
	out := rv.Clone()
	for i := range out.Counts {
		for j := range out.Counts[i] {
			out.Counts[i][j] += other.Counts[i][j]
		}
	}
	return out, nil
}

// Sub returns rv − other element-wise, erroring if any count would go
// negative.
func (rv ResourceVector) Sub(other ResourceVector) (ResourceVector, error) {
	if !sameShape(rv, other) {
		return ResourceVector{}, fmt.Errorf("platform: subtracting vectors of different shapes")
	}
	out := rv.Clone()
	for i := range out.Counts {
		for j := range out.Counts[i] {
			out.Counts[i][j] -= other.Counts[i][j]
			if out.Counts[i][j] < 0 {
				return ResourceVector{}, fmt.Errorf(
					"platform: subtraction underflow at kind %d, %d threads", i, j+1)
			}
		}
	}
	return out, nil
}

// FitsWithinCores reports whether the per-kind core demand of rv fits within
// the given per-kind capacity. This is the constraint check of Eq. 1b — HARP
// partitions physical cores, so two single-thread allocations of the same
// P-core still conflict.
func (rv ResourceVector) FitsWithinCores(capacity []int) bool {
	for kind := range rv.Counts {
		if kind >= len(capacity) {
			return rv.Cores(KindID(kind)) == 0
		}
		if rv.Cores(KindID(kind)) > capacity[kind] {
			return false
		}
	}
	return true
}

// Key returns a canonical string form usable as a map key, e.g. "1,2|4".
func (rv ResourceVector) Key() string {
	var b strings.Builder
	for i, counts := range rv.Counts {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, c := range counts {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(c))
		}
	}
	return b.String()
}

// ParseKey parses the Key form back into a vector shaped for the platform.
func ParseKey(p *Platform, key string) (ResourceVector, error) {
	rv := NewResourceVector(p)
	kinds := strings.Split(key, "|")
	if len(kinds) != len(p.Kinds) {
		return rv, fmt.Errorf("platform: key %q has %d kinds, want %d", key, len(kinds), len(p.Kinds))
	}
	for kind, part := range kinds {
		slots := strings.Split(part, ",")
		if len(slots) != p.Kinds[kind].SMT {
			return rv, fmt.Errorf("platform: key %q kind %d has %d slots, want %d",
				key, kind, len(slots), p.Kinds[kind].SMT)
		}
		for t, s := range slots {
			c, err := strconv.Atoi(s)
			if err != nil {
				return rv, fmt.Errorf("platform: key %q: %w", key, err)
			}
			rv.Counts[kind][t] = c
		}
	}
	return rv, rv.Validate(p)
}

// Features flattens the vector into a float slice — the regression-model
// input (§5.2).
func (rv ResourceVector) Features() []float64 {
	var n int
	for _, counts := range rv.Counts {
		n += len(counts)
	}
	out := make([]float64, 0, n)
	for _, counts := range rv.Counts {
		for _, c := range counts {
			out = append(out, float64(c))
		}
	}
	return out
}

// String implements fmt.Stringer using the canonical key form.
func (rv ResourceVector) String() string { return "[" + rv.Key() + "]" }

// EnumerateVectors returns every non-zero resource vector that fits on the
// platform, optionally capped at maxCoresPerKind (≤ 0 means no cap). This is
// the coarse-grained configuration space explored at runtime (§5.3) and swept
// offline for Fig. 1.
func EnumerateVectors(p *Platform, maxCoresPerKind int) []ResourceVector {
	caps := make([]int, len(p.Kinds))
	for i, k := range p.Kinds {
		caps[i] = k.Count
		if maxCoresPerKind > 0 && maxCoresPerKind < caps[i] {
			caps[i] = maxCoresPerKind
		}
	}
	return EnumerateVectorsWithin(p, caps)
}

// EnumerateVectorsWithin returns every non-zero vector whose per-kind core
// demand stays within the given caps — the configuration space available to
// one application during exploration, bounded by the resources the allocator
// granted it (§5.3).
func EnumerateVectorsWithin(p *Platform, caps []int) []ResourceVector {
	perKind := make([][][]int, len(p.Kinds))
	for kindIdx, k := range p.Kinds {
		limit := k.Count
		if kindIdx < len(caps) && caps[kindIdx] < limit {
			limit = caps[kindIdx]
		}
		if limit < 0 {
			limit = 0
		}
		perKind[kindIdx] = enumerateKind(k.SMT, limit)
	}

	var out []ResourceVector
	var build func(kind int, acc [][]int)
	build = func(kind int, acc [][]int) {
		if kind == len(perKind) {
			rv := ResourceVector{Counts: make([][]int, len(acc))}
			nonZero := false
			for i, counts := range acc {
				rv.Counts[i] = make([]int, len(counts))
				copy(rv.Counts[i], counts)
				for _, c := range counts {
					if c != 0 {
						nonZero = true
					}
				}
			}
			if nonZero {
				out = append(out, rv)
			}
			return
		}
		for _, counts := range perKind[kind] {
			build(kind+1, append(acc, counts))
		}
	}
	build(0, make([][]int, 0, len(p.Kinds)))
	return out
}

// enumerateKind lists all (c_1, …, c_smt) with Σc_t ≤ limit.
func enumerateKind(smt, limit int) [][]int {
	var out [][]int
	counts := make([]int, smt)
	var rec func(slot, used int)
	rec = func(slot, used int) {
		if slot == smt {
			c := make([]int, smt)
			copy(c, counts)
			out = append(out, c)
			return
		}
		for c := 0; c <= limit-used; c++ {
			counts[slot] = c
			rec(slot+1, used+c)
		}
		counts[slot] = 0
	}
	rec(0, 0)
	return out
}

func sameShape(a, b ResourceVector) bool {
	if len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if len(a.Counts[i]) != len(b.Counts[i]) {
			return false
		}
	}
	return true
}
