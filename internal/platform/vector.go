package platform

import (
	"fmt"
	"slices"
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
	return slices.EqualFunc(rv.Counts, other.Counts, slices.Equal[[]int])
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

// CoreDemand returns the per-kind physical core demand — the multidimensional
// weight used in the MMKP resource constraint (Eq. 1b).
func (rv ResourceVector) CoreDemand() []int {
	demand := make([]int, len(rv.Counts))
	for kind := range rv.Counts {
		demand[kind] = rv.Cores(KindID(kind))
	}
	return demand
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
	var caps []int
	if maxCoresPerKind > 0 {
		caps = slices.Repeat([]int{maxCoresPerKind}, len(p.Kinds))
	}
	return EnumerateVectorsWithin(p, caps)
}

// EnumerateVectorsWithin returns every non-zero vector whose per-kind core
// demand stays within the given caps — the configuration space available to
// one application during exploration, bounded by the resources the allocator
// granted it (§5.3) — materialised in the order of Space.Walk.
func EnumerateVectorsWithin(p *Platform, caps []int) []ResourceVector {
	s := SpaceWithin(p, caps)
	out := make([]ResourceVector, 0, s.Len())
	for w := s.Walk(NewResourceVector(p), nil); w.Next(); {
		out = append(out, w.Vector.Clone())
	}
	return out
}

// Space is the set of non-zero vectors whose demand on each kind k stays
// within min(caps[k], Count), a missing cap counting as Count and a negative
// one as 0. It holds only the platform and the caps: Walk decodes its
// vectors one at a time and Position locates one, so nothing is built.
type Space struct {
	plat *Platform
	caps []int
}

// SpaceWithin returns the space within caps (nil: the whole platform).
func SpaceWithin(p *Platform, caps []int) Space { return Space{plat: p, caps: caps} }

// limit is the core budget of kind k.
func (s Space) limit(k int) int {
	limit := s.plat.Kinds[k].Count
	if k < len(s.caps) && s.caps[k] < limit {
		limit = s.caps[k]
	}
	return max(limit, 0)
}

// Len returns the number of vectors in the space.
func (s Space) Len() int {
	n := 1
	for k, kind := range s.plat.Kinds {
		n *= tuples(kind.SMT, s.limit(k))
	}
	return n - 1 // the zero vector is not a configuration
}

// Position returns rv's index in the walk of s, or -1 when rv is not in s.
// The walk is lexicographic over the flattened counts, so the index is a
// mixed-radix number whose digit for kind k ranks that kind's counts among
// the tuples within its limit.
func (s Space) Position(rv ResourceVector) int {
	if len(rv.Counts) != len(s.plat.Kinds) {
		return -1
	}
	pos := 0
	for k, counts := range rv.Counts {
		if len(counts) != s.plat.Kinds[k].SMT {
			return -1
		}
		limit := s.limit(k)
		rank, used := 0, 0
		for t, c := range counts {
			if c < 0 || used+c > limit {
				return -1
			}
			// The tuples sharing the prefix before t and holding v < c at
			// t, summed over v by the hockey-stick identity.
			r := len(counts) - t
			rank += tuples(r, limit-used) - tuples(r, limit-used-c)
			used += c
		}
		pos = pos*tuples(len(counts), limit) + rank
	}
	return pos - 1
}

// tuples returns the number of n-tuples of non-negative counts summing to
// at most limit: C(limit+n, n).
func tuples(n, limit int) int {
	c := 1
	for i := 1; i <= n; i++ {
		c = c * (limit + i) / i
	}
	return c
}

// Walk returns a walk of the space that decodes each vector into rv and its
// Features into feats (grown if short). Both are the caller's scratch, rv
// shaped for the platform (NewResourceVector); every Next overwrites them,
// so a vector kept past the next step must be copied out.
func (s Space) Walk(rv ResourceVector, feats []float64) Walk {
	for _, counts := range rv.Counts {
		clear(counts)
	}
	return Walk{Space: s, Vector: rv, Features: feats, index: -1}
}

// Walk steps through a Space in EnumerateVectorsWithin's order without
// allocating: each Next advances the scratch vector to its lexicographic
// successor within the per-kind limits.
type Walk struct {
	Space
	// Vector and Features hold the current configuration (caller scratch).
	Vector   ResourceVector
	Features []float64
	index    int
}

// Next advances to the next vector, reporting false once the space is
// exhausted.
func (w *Walk) Next() bool {
	counts := w.Vector.Counts
	for k := len(counts) - 1; k >= 0; k-- {
		used, limit := 0, w.limit(k)
		for _, c := range counts[k] {
			used += c
		}
		// Increment the last slot whose prefix (used) leaves room, zeroing
		// the slots after it.
		for t := len(counts[k]) - 1; t >= 0; t-- {
			if used >= limit {
				used -= counts[k][t]
				continue
			}
			counts[k][t]++
			clear(counts[k][t+1:])
			for _, later := range counts[k+1:] {
				clear(later)
			}
			w.Features = w.Features[:0]
			for _, kind := range counts {
				for _, c := range kind {
					w.Features = append(w.Features, float64(c))
				}
			}
			w.index++
			return true
		}
	}
	return false
}

// Index returns the current vector's position in the walk: its Position.
func (w *Walk) Index() int { return w.index }
