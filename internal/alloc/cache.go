package alloc

// Solution cache: a content-addressed, in-process LRU memoising complete
// solver outputs keyed by the input Fingerprint. HARP's adaptation loop
// re-solves the MMKP every epoch, yet in steady state most epochs see inputs
// identical to the previous one (long stable phases between adaptations);
// the cache makes those epochs O(lookup) instead of O(solve). Entries are
// exportable so the PR 5 state store can persist them across restarts — a
// warm-restarted RM then skips its first full solve.
//
// Correctness rests entirely on content addressing: the Fingerprint covers
// every input the solver reads (see Fingerprint.go), so there is no
// invalidation protocol to get wrong — register, deregister, phase change or
// table mutation each change the fingerprint and miss naturally. Cached
// slices are returned WITHOUT copying (the zero-allocation hit path) and
// must be treated as read-only by callers; the Manager already clones what
// it mutates.

// DefaultCacheSize is the solution-cache capacity used when a caller enables
// caching without choosing a size. Steady-state harpd sees a handful of
// distinct fingerprints between input changes; 64 leaves generous headroom
// for oscillating workloads without retaining unbounded history.
const DefaultCacheSize = 64

// cacheMaxAllocations bounds how many Allocation records the cache retains
// across all of its entries — what DefaultCacheSize solutions of a
// 256-application population hold. The entry count alone is no memory bound:
// at churn scale one solution is thousands of records, a fingerprint almost
// never repeats, and 64 of them per allocator were tens of megabytes of
// never-hit state that kept growing with every cadence full solve. Under the
// budget the least recently used solutions go first; the newest one is always
// admitted, so "same inputs as the last full solve" still hits at any scale.
const cacheMaxAllocations = DefaultCacheSize * 256

// CacheStats is a point-in-time view of the solution cache's accounting.
type CacheStats struct {
	// Size and Cap are the current and maximum entry counts.
	Size, Cap int
	// Hits, Misses and Evictions count lookups served from cache, lookups
	// that fell through to a full solve, and entries dropped at capacity.
	Hits, Misses, Evictions uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CachedSolution is one exportable cache entry: the input Fingerprint and
// the memoised solver output. The store layer persists these verbatim in
// snapshots; on import the fingerprint self-validates (it covers platform,
// method and iteration budget), so stale entries are harmlessly unreachable
// rather than dangerous.
type CachedSolution struct {
	Key         Fingerprint  `json:"key"`
	Allocations []Allocation `json:"allocations"`
	Stats       Stats        `json:"stats"`
}

// cacheEntry is one resident solution on the intrusive LRU list.
type cacheEntry struct {
	key        Fingerprint
	allocs     []Allocation
	stats      Stats // stats of the original cold/warm solve
	prev, next *cacheEntry
}

// solutionCache is the LRU. Not goroutine-safe — the Allocator's embedders
// (Manager, benchmarks) already serialise solves.
type solutionCache struct {
	entries    map[Fingerprint]*cacheEntry
	head, tail *cacheEntry // head = most recently used
	cap        int
	weight     int // Allocation records held across entries
	hits       uint64
	misses     uint64
	evictions  uint64
}

func newSolutionCache(capacity int) *solutionCache {
	return &solutionCache{
		entries: make(map[Fingerprint]*cacheEntry, capacity),
		cap:     capacity,
	}
}

// get returns the entry for the fingerprint and promotes it to the front,
// or nil on a miss. The hit path performs no heap allocation.
func (c *solutionCache) get(fp Fingerprint) *cacheEntry {
	e, ok := c.entries[fp]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.moveToFront(e)
	return e
}

// put inserts (or refreshes) a solution, evicting the least recently used
// entries at the entry capacity or the cacheMaxAllocations budget; it returns
// how many entries were evicted.
func (c *solutionCache) put(fp Fingerprint, allocs []Allocation, stats Stats) int {
	if e, ok := c.entries[fp]; ok {
		c.weight += len(allocs) - len(e.allocs)
		e.allocs, e.stats = allocs, stats
		c.moveToFront(e)
		return 0
	}
	evicted := 0
	for len(c.entries) >= c.cap || c.weight+len(allocs) > cacheMaxAllocations {
		lru := c.tail
		if lru == nil {
			break
		}
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.weight -= len(lru.allocs)
		c.evictions++
		evicted++
	}
	e := &cacheEntry{key: fp, allocs: allocs, stats: stats}
	c.entries[fp] = e
	c.weight += len(allocs)
	c.pushFront(e)
	return evicted
}

func (c *solutionCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *solutionCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *solutionCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *solutionCache) stats() CacheStats {
	return CacheStats{
		Size: len(c.entries), Cap: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// CacheStats reports the solution cache's accounting; the zero value means
// caching is disabled.
func (a *Allocator) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	return a.cache.stats()
}

// ExportCache dumps up to max resident solutions in most-recently-used
// order, for snapshot persistence. A non-positive max exports everything.
func (a *Allocator) ExportCache(max int) []CachedSolution {
	if a.cache == nil || len(a.cache.entries) == 0 {
		return nil
	}
	if max <= 0 || max > len(a.cache.entries) {
		max = len(a.cache.entries)
	}
	out := make([]CachedSolution, 0, max)
	for e := a.cache.head; e != nil && len(out) < max; e = e.next {
		out = append(out, CachedSolution{Key: e.key, Allocations: e.allocs, Stats: e.stats})
	}
	return out
}

// SeedCache loads previously exported solutions, least-recently-used first
// so relative recency survives the round trip. Entries beyond capacity are
// dropped; empty entries are skipped. A disabled cache ignores the seed.
func (a *Allocator) SeedCache(entries []CachedSolution) {
	if a.cache == nil {
		return
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if len(e.Allocations) == 0 {
			continue
		}
		a.cache.put(e.Key, e.Allocations, e.Stats)
	}
	// Seeding is bookkeeping, not workload: don't let it pollute the
	// miss/eviction counters the hit-rate is computed from.
	a.cache.misses, a.cache.evictions = 0, 0
}
