package alloc

// Sharded epoch solving: partition the applications into independent
// allocation domains by platform-kind footprint and solve the domains in
// parallel, one child Allocator per domain.
//
// The partition is exact, not heuristic: an application's footprint is the
// set of core kinds any of its usable operating points demands (a superset
// of what the solver can ever choose for it, since candidates are a Pareto
// subset of the usable points). Two applications whose footprints share no
// kind can never compete for a core, so solving them in different domains
// is loss-free — the merged solution is one a full solve could also have
// produced, and it satisfies the same structural invariants
// (check.CheckAllocations) because isolated grants stay inside their
// domain's kinds and co-allocated grants are exempt from overlap rules.
// Domains are connected components of the "shares a kind" relation, found
// with a small union-find over the distinct footprints. Membership — each
// domain's position list and input slice — the merged solution and the delta
// are kept between solves and refilled in place, so partitioning allocates
// nothing once the population has been seen.
//
// Children are keyed by domain kind-mask and persist across solves, so each
// domain keeps its own solution cache, warm-start λ and incremental pin
// state (whatever options the Sharded allocator was built with). Power is
// not coordinated across domains: the manager's power governor owns the
// budget, exactly as for an unsharded allocator.
//
// The children's deltas (Stats.Changed) are mapped back to input positions
// and merged; a domain whose child reports none — a full or cached solve, or
// a child that sat out the previous solve because its domain was empty —
// contributes all of its positions.
//
// Sharded implements the core.Allocator interface. It deliberately does not
// forward SetOverBudget or the cache export hooks: the degradation ladder
// and state snapshots operate on a single allocator, and a manager that
// wants them uses a plain *Allocator. Like *Allocator, Sharded is not
// goroutine-safe — the embedder serialises solves; internally each parallel
// worker touches exactly one child.

import (
	"fmt"
	"slices"

	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
)

// Sharded partitions applications into kind-footprint domains and solves
// them in parallel on child Allocators.
type Sharded struct {
	plat        *platform.Platform
	parallelism int
	childOpts   []Option

	// children persist per domain kind-mask so caches, warm starts and
	// incremental pins survive across epochs as long as the partition is
	// stable. solves numbers this allocator's solves.
	children map[uint64]*shardChild
	solves   uint64

	// Partition state and the merged result, retained and refilled in place
	// each solve (see the result-ownership rule on Allocator.AllocateWithStats).
	masks   []uint64
	parent  []int
	domOf   []int     // union-find root kind -> index into doms, -1 = none yet
	doms    []*domain // doms[:nd] are this solve's domains
	out     []Allocation
	changed []int
}

// NewSharded creates a sharded allocator. parallelism <= 0 means one worker
// per CPU; opts are applied to every child Allocator (method, cache, warm
// start, incremental, metrics...). powerCapW must be 0: power across
// domains is the manager's power governor's job, and the parameter remains
// only because existing callers pass it positionally.
func NewSharded(plat *platform.Platform, parallelism int, powerCapW float64, opts ...Option) (*Sharded, error) {
	if powerCapW != 0 {
		return nil, fmt.Errorf("alloc: sharded power cap %g W is unsupported (pass 0)", powerCapW)
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	// Build one child eagerly: surfaces bad options at construction time and
	// pre-warms the whole-platform domain every mixed workload hits.
	s := &Sharded{
		plat:        plat,
		parallelism: parallelism,
		childOpts:   opts,
		children:    make(map[uint64]*shardChild),
		changed:     make([]int, 0, 16), // never nil: a nil delta reads as "everything moved"
	}
	if _, err := s.child(s.allKindsMask()); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Sharded) allKindsMask() uint64 {
	return (uint64(1) << uint(len(s.plat.Kinds))) - 1
}

// shardChild is one domain's persistent Allocator and the number of the
// solve it last took part in.
type shardChild struct {
	*Allocator
	ran uint64
}

func (s *Sharded) child(mask uint64) (*shardChild, error) {
	if c, ok := s.children[mask]; ok {
		return c, nil
	}
	a, err := New(s.plat, s.childOpts...)
	if err != nil {
		return nil, err
	}
	c := &shardChild{Allocator: a}
	s.children[mask] = c
	return c, nil
}

// delta returns the child's Stats.Changed for the solve it just ran and
// marks it as having run. A child's delta is relative to its own previous
// solve: when it sat out the solve before this one (its domain was empty, or
// another child took the whole input), the caller's previous answer for its
// applications came from elsewhere and there is no delta.
func (s *Sharded) delta(c *shardChild, stats *Stats) []int {
	consecutive := c.ran+1 == s.solves
	c.ran = s.solves
	if !consecutive {
		return nil
	}
	return stats.Changed
}

// footprint returns the bitmask of kinds any usable point of the table
// demands; an application with no usable points demands exactly the
// fallback candidate's kind (the last, most efficient one). A nil table
// maps to all kinds so the error surfaces from a single child's buildState.
func (s *Sharded) footprint(app *AppInput) uint64 {
	if app.Table == nil {
		return s.allKindsMask()
	}
	var mask uint64
	if f := app.Table.Facts(); app.MaxUtility <= 0 || app.MaxUtility == f.VStar {
		mask = f.Footprint
	} else {
		for i := range app.Table.Points {
			if p := &app.Table.Points[i]; p.Usable(app.MaxUtility) {
				mask |= p.Vector.KindMask()
			}
		}
	}
	if mask == 0 {
		mask = 1 << uint(len(s.plat.Kinds)-1) // fallbackCandidate's kind
	}
	return mask
}

// domain is one connected component of the shares-a-kind relation: the kinds
// it owns, the positions (input order) of the applications inside it, their
// inputs, and — during a solve — its child and the child's result.
type domain struct {
	mask   uint64
	idx    []int
	inputs []AppInput
	child  *shardChild
	allocs []Allocation
	stats  Stats
}

// partition assigns every application to its domain and returns how many
// domains this solve has (s.doms[:n], ordered by first appearance — a
// deterministic order independent of parallelism, the parallel.Run contract).
func (s *Sharded) partition(apps []AppInput) int {
	nk := len(s.plat.Kinds)
	if s.parent == nil {
		s.parent = make([]int, nk)
		s.domOf = make([]int, nk)
	}
	parent := s.parent
	for k := range parent {
		parent[k] = k
	}
	find := func(k int) int {
		for parent[k] != k {
			parent[k] = parent[parent[k]]
			k = parent[k]
		}
		return k
	}
	if cap(s.masks) < len(apps) {
		s.masks = make([]uint64, roomFor(len(apps)))
	}
	masks := s.masks[:len(apps)]

	// Union-find over kinds: each footprint links its kinds. Linking is
	// idempotent, so a footprint equal to the previous application's — the
	// common case, populations run a handful of distinct tables — is skipped.
	var last uint64
	for i := range apps {
		m := s.footprint(&apps[i])
		masks[i] = m
		if m == last {
			continue
		}
		last = m
		first := -1
		for k := 0; k < nk; k++ {
			if m&(1<<uint(k)) == 0 {
				continue
			}
			if first < 0 {
				first = find(k)
				continue
			}
			parent[find(k)] = first
		}
	}

	for k := range s.domOf {
		s.domOf[k] = -1
	}
	nd := 0
	for i := range apps {
		root := find(lowestKind(masks[i]))
		di := s.domOf[root]
		if di < 0 {
			di = nd
			nd++
			s.domOf[root] = di
			if di == len(s.doms) {
				s.doms = append(s.doms, &domain{})
			}
			d := s.doms[di]
			d.idx, d.inputs = d.idx[:0], d.inputs[:0]
			// The mask covers the whole component, not just the kinds the
			// surviving apps touch, so the child key is stable while
			// membership fluctuates.
			d.mask = 0
			for k := 0; k < nk; k++ {
				if find(k) == root {
					d.mask |= 1 << uint(k)
				}
			}
		}
		d := s.doms[di]
		d.idx = append(d.idx, i)
		d.inputs = append(d.inputs, apps[i])
	}
	return nd
}

// AllocateWithStats implements core.Allocator: partition, solve domains in
// parallel and merge positionally. The result-ownership rule of
// Allocator.AllocateWithStats applies.
func (s *Sharded) AllocateWithStats(apps []AppInput) ([]Allocation, Stats, error) {
	nk := len(s.plat.Kinds)
	if len(apps) == 0 || nk > 64 {
		// Degenerate platform widths fall back to a single whole-platform
		// solve (no production platform has >64 core kinds).
		c, err := s.child(s.allKindsMask())
		if err != nil {
			return nil, Stats{}, err
		}
		return s.solveChild(c, apps)
	}

	nd := s.partition(apps)
	doms := s.doms[:nd]
	for _, d := range doms {
		// Materialise children before fanning out — workers must not touch
		// shared maps.
		c, err := s.child(d.mask)
		if err != nil {
			return nil, Stats{}, err
		}
		d.child = c
	}
	if nd == 1 {
		// One domain: plain delegation, child source and delta preserved (a
		// sharded manager on a single-kind platform behaves exactly like an
		// unsharded one).
		return s.solveChild(doms[0].child, apps)
	}

	// Children write into the merged, positional result (the
	// CheckAllocations contract): an incremental merge places its domain
	// directly, any other child solve returns a slice that is placed here.
	if cap(s.out) < len(apps) {
		s.out = make([]Allocation, roomFor(len(apps)))
	}
	out := s.out[:len(apps)]
	s.solves++
	err := parallel.Run(s.parallelism, nd, func(di int) (err error) {
		d := doms[di]
		d.allocs, d.stats, err = d.child.solve(d.inputs, out, d.idx)
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	for _, d := range doms {
		if d.allocs == nil {
			continue // an incremental merge placed its domain directly
		}
		for j, i := range d.idx {
			out[i] = d.allocs[j]
		}
		d.allocs = nil // the child owns it
	}

	// Aggregate stats and map the children's deltas to input positions.
	changed := s.changed[:0]
	stats := Stats{Apps: len(apps), Source: SourceSharded}
	whole := 0 // domains without a delta
	for _, d := range doms {
		stats.Candidates += d.stats.Candidates
		stats.LambdaIters += d.stats.LambdaIters
		stats.CoAllocated += d.stats.CoAllocated
		stats.Pinned += d.stats.Pinned
		stats.Resolved += d.stats.Resolved
		if moved := s.delta(d.child, &d.stats); moved == nil {
			changed = append(changed, d.idx...)
			whole++
		} else {
			for _, j := range moved {
				changed = append(changed, d.idx[j])
			}
		}
		d.stats.Changed = nil // the child owns it
	}
	s.changed = changed[:0]
	if whole < nd {
		slices.Sort(changed)
		stats.Changed = changed
	}
	return out, stats, nil
}

// solveChild delegates a whole solve to one child.
func (s *Sharded) solveChild(c *shardChild, apps []AppInput) ([]Allocation, Stats, error) {
	s.solves++
	out, stats, err := c.AllocateWithStats(apps)
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Changed = s.delta(c, &stats)
	return out, stats, nil
}

// Allocate is AllocateWithStats without the statistics.
func (s *Sharded) Allocate(apps []AppInput) ([]Allocation, error) {
	out, _, err := s.AllocateWithStats(apps)
	return out, err
}

// Domains reports how many child allocators exist (distinct domain masks
// seen so far) — observability for tests and harpctl.
func (s *Sharded) Domains() int { return len(s.children) }

func lowestKind(mask uint64) int {
	for k := 0; k < 64; k++ {
		if mask&(1<<uint(k)) != 0 {
			return k
		}
	}
	return 0
}
