package alloc

// Solution cache: a content-addressed, in-process LRU memoising each full
// solve's selection — per input position the ID, the chosen operating point
// and the co-allocation flag — keyed by the input Fingerprint. HARP's
// adaptation loop re-solves the MMKP every epoch, yet in steady state most
// epochs see inputs identical to the previous one (long stable phases
// between adaptations); the cache makes those epochs O(lookup + placement)
// instead of O(solve). A hit places the memoised selection against the
// standing placement like any solve, so a cached and a cache-less allocator
// return the same cores for the same history, and a repeated input keeps
// every grant list and allocates nothing. It is a process-local memo:
// snapshots do not carry it (see DESIGN.md §5).
//
// Correctness rests entirely on content addressing: the Fingerprint covers
// every input the solver reads (see Fingerprint.go), so there is no
// invalidation protocol to get wrong — register, deregister, phase change or
// table mutation each change the fingerprint and miss naturally.

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

// cacheEntry is one resident selection on the intrusive LRU list: sel
// holds the selection as allocations without grants.
type cacheEntry struct {
	key        Fingerprint
	sel        []Allocation
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

// put inserts (or refreshes) the selection of a placed solution — per
// position its ID, point and co-allocation flag, without grants — evicting
// the least recently used entries at the entry capacity or the
// cacheMaxAllocations budget; it returns how many entries were evicted. The
// cache owns its entries and a hit copies out, so an evicted entry's struct
// and selection are written over rather than dropped: at churn scale every
// cadence full solve evicts the one solution the budget holds, and a fresh
// selection per put was a megabyte each time.
func (c *solutionCache) put(fp Fingerprint, out []Allocation, stats Stats) int {
	evicted := 0
	e, ok := c.entries[fp]
	if ok {
		c.unlink(e)
		c.weight -= len(e.sel)
	} else {
		for len(c.entries) >= c.cap || c.weight+len(out) > cacheMaxAllocations {
			lru := c.tail
			if lru == nil {
				break
			}
			c.unlink(lru)
			delete(c.entries, lru.key)
			c.weight -= len(lru.sel)
			c.evictions++
			evicted++
			if e == nil || cap(lru.sel) > cap(e.sel) {
				e = lru
			}
		}
		if e == nil {
			e = new(cacheEntry)
		}
		e.key = fp
		c.entries[fp] = e
	}
	sel := e.sel
	if len(out) > cap(sel) {
		sel = make([]Allocation, len(out))
	} else {
		sel = resize(sel, len(out))
	}
	for i := range out {
		sel[i] = Allocation{ID: out[i].ID, Point: out[i].Point, CoAllocated: out[i].CoAllocated}
	}
	e.sel, e.stats = sel, stats
	c.weight += len(sel)
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
