package core

// recentDepartures is how many departed instances the Manager remembers for
// resumption counting (harp_session_reconnects_total). A client that comes
// back reconnects within seconds; an instance that left this many departures
// ago is a new session for every practical purpose. Without a bound the set
// grew by one entry per departed instance for the life of the daemon —
// clients with unique PIDs never return to delete theirs.
const recentDepartures = 4096

// recentSet is a bounded set of strings that forgets its oldest member when
// a new one does not fit: a ring of the members in arrival order plus an
// index for O(1) membership. Not goroutine-safe.
type recentSet struct {
	limit int
	ring  []string
	next  int            // ring slot the next member overwrites once full
	at    map[string]int // member -> its ring slot
}

func newRecentSet(limit int) *recentSet {
	return &recentSet{limit: limit, at: make(map[string]int)}
}

// reserve raises the capacity to at least n members.
func (r *recentSet) reserve(n int) {
	if n > r.limit {
		r.limit = n
	}
}

// add makes id a member, evicting the oldest one at capacity.
func (r *recentSet) add(id string) {
	if _, ok := r.at[id]; ok {
		return
	}
	if len(r.ring) < r.limit {
		r.at[id] = len(r.ring)
		r.ring = append(r.ring, id)
		return
	}
	// The slot's previous tenant is evicted — unless it was removed, or
	// removed and re-added elsewhere, in which case the slot is already free.
	if old := r.ring[r.next]; r.at[old] == r.next {
		delete(r.at, old)
	}
	r.ring[r.next] = id
	r.at[id] = r.next
	r.next = (r.next + 1) % r.limit
}

// remove drops id; its ring slot is reclaimed when the ring comes round.
func (r *recentSet) remove(id string) { delete(r.at, id) }

func (r *recentSet) has(id string) bool {
	_, ok := r.at[id]
	return ok
}

func (r *recentSet) len() int { return len(r.at) }
