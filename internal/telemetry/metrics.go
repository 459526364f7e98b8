package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are nil-safe
// and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64 metric (e.g. joules,
// seconds). All methods are nil-safe and lock-free (CAS on the float bits).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds v (negative or NaN additions are ignored to keep the counter
// monotone).
func (c *FloatCounter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 metric that can go up and down. All methods are
// nil-safe and lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// CounterVec is a family of counters keyed by one label value (e.g.
// degraded epochs keyed by ladder rung).
type CounterVec struct {
	label string
	mu    sync.Mutex
	vals  map[string]*Counter
}

// With returns the counter for the label value, creating it on first use.
// Callers on hot paths should cache the returned *Counter. Nil-safe:
// returns a nil *Counter whose methods are no-ops.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.vals[value]
	if !ok {
		c = &Counter{}
		v.vals[value] = c
	}
	return c
}

// Histogram counts observations into fixed cumulative buckets (Prometheus
// classic histogram semantics: bucket i counts observations <= Buckets[i],
// plus an implicit +Inf bucket). Observations are lock-free.
type Histogram struct {
	buckets []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.buckets, v)
	if idx < len(h.buckets) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// returning the upper bound of the bucket containing the rank — a
// conservative (pessimistic) estimate, which is what health thresholds
// want. Returns 0 with no observations, and +Inf when the rank falls in the
// implicit +Inf bucket. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		if cum >= rank {
			return ub
		}
	}
	return math.Inf(1)
}

// HistogramVec is a family of histograms sharing one bucket layout, keyed
// by one label value (e.g. epoch phase durations keyed by phase).
type HistogramVec struct {
	label   string
	buckets []float64
	mu      sync.Mutex
	vals    map[string]*Histogram
}

// With returns the histogram for the label value, creating it on first use.
// Callers on hot paths should cache the returned *Histogram. Nil-safe:
// returns a nil *Histogram whose methods are no-ops.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.vals[value]
	if !ok {
		h = &Histogram{buckets: v.buckets, counts: make([]atomic.Uint64, len(v.buckets))}
		v.vals[value] = h
	}
	return h
}

// metric is one registered instrument.
type metric struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	c    *Counter
	cv   *CounterVec
	fc   *FloatCounter
	g    *Gauge
	h    *Histogram
	hv   *HistogramVec
}

// Registry holds named metrics and renders them in Prometheus text format.
// The zero Registry is not usable; construct with
// NewRegistry. A nil *Registry hands out nil instruments, which are valid
// no-ops, so optional instrumentation needs no guards.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(name, help, typ string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := &metric{name: name, help: help, typ: typ}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "counter")
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// CounterVec returns the named one-label counter family, creating it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "counter")
	if m.cv == nil {
		m.cv = &CounterVec{label: label, vals: make(map[string]*Counter)}
	}
	return m.cv
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "counter")
	if m.fc == nil {
		m.fc = &FloatCounter{}
	}
	return m.fc
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "gauge")
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the named histogram with the given bucket upper bounds
// (sorted ascending, +Inf implicit), creating it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "histogram")
	if m.h == nil {
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		m.h = &Histogram{buckets: bs, counts: make([]atomic.Uint64, len(bs))}
	}
	return m.h
}

// HistogramVec returns the named one-label histogram family with the given
// bucket upper bounds, creating it on first use.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, "histogram")
	if m.hv == nil {
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		m.hv = &HistogramVec{label: label, buckets: bs, vals: make(map[string]*Histogram)}
	}
	return m.hv
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	ms := make([]*metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()

	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		switch {
		case m.c != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case m.cv != nil:
			m.cv.mu.Lock()
			keys := make([]string, 0, len(m.cv.vals))
			for k := range m.cv.vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.cv.label, k, m.cv.vals[k].Value())
			}
			m.cv.mu.Unlock()
		case m.fc != nil:
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fc.Value()))
		case m.g != nil:
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.g.Value()))
		case m.h != nil:
			var cum uint64
			for i, ub := range m.h.buckets {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(ub), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.h.Count())
			fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(m.h.Sum()))
			fmt.Fprintf(w, "%s_count %d\n", m.name, m.h.Count())
		case m.hv != nil:
			m.hv.mu.Lock()
			keys := make([]string, 0, len(m.hv.vals))
			for k := range m.hv.vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h := m.hv.vals[k]
				var cum uint64
				for i, ub := range h.buckets {
					cum += h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", m.name, m.hv.label, k, formatFloat(ub), cum)
				}
				fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", m.name, m.hv.label, k, h.Count())
				fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", m.name, m.hv.label, k, formatFloat(h.Sum()))
				fmt.Fprintf(w, "%s_count{%s=%q} %d\n", m.name, m.hv.label, k, h.Count())
			}
			m.hv.mu.Unlock()
		}
	}
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// Default bucket layouts for the adaptation loop's latencies.
var (
	// LatencyBuckets suit sub-millisecond allocator runs up to slow
	// multi-application solves (seconds).
	LatencyBuckets = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1}
	// JitterBuckets suit deviations from the 50 ms measure cadence.
	JitterBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2}
	// IterationBuckets suit subgradient iteration counts (default budget 60):
	// warm-started solves should land in the low buckets, cold solves near
	// the budget.
	IterationBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
)

// Metrics bundles the adaptation-loop instruments the resource manager and
// its embedders update. A nil *Metrics disables everything: the field
// selectors below are only reached through nil-guarded call sites, and each
// instrument is itself nil-safe.
type Metrics struct {
	// Decisions counts pushed allocation decisions.
	Decisions *Counter
	// Reallocations counts system-wide allocation recomputations.
	Reallocations *Counter
	// Samples counts measurement samples fed to the RM.
	Samples *Counter
	// ExplorationSteps counts exploration configurations started.
	ExplorationSteps *Counter
	// Sessions gauges the registered session count.
	Sessions *Gauge
	// CoresGranted gauges the isolated physical cores currently granted.
	CoresGranted *Gauge
	// MeasureJitter observes the absolute deviation of the measure loop from
	// its cadence, in seconds.
	MeasureJitter *Histogram

	// SessionsLive gauges the sessions currently in the live state (not
	// suspect, quarantined or gone).
	SessionsLive *Gauge
	// SessionsReaped counts sessions deregistered by the liveness reaper.
	SessionsReaped *Counter
	// SessionsQuarantined counts transitions into quarantine.
	SessionsQuarantined *Counter
	// SessionsReadmitted counts suspect/quarantined sessions that resumed.
	SessionsReadmitted *Counter
	// WriteTimeouts counts decision/probe writes that missed their
	// per-connection deadline or otherwise failed.
	WriteTimeouts *Counter
	// Reconnects counts session resumptions: registrations that replaced a
	// previously reaped or exited instance of the same application.
	Reconnects *Counter

	// SessionsRejected counts registrations refused by admission control
	// (MaxSessions cap).
	SessionsRejected *Counter
	// StoreSnapshotAge gauges seconds since the last snapshot was written
	// (on the embedder's clock; 0 until the first snapshot).
	StoreSnapshotAge *Gauge
	// StoreSnapshotBytes gauges the size of the last written snapshot.
	StoreSnapshotBytes *Gauge
	// StoreWALRecords counts records appended to the write-ahead log.
	StoreWALRecords *Counter
	// StoreReplaySeconds gauges how long the last recovery replay took.
	StoreReplaySeconds *Gauge
	// StoreCorruptions counts corruption events detected by the store
	// (torn WAL tails truncated, quarantined snapshots/WALs).
	StoreCorruptions *Counter

	// AllocCacheHits counts allocator solves served from the fingerprinted
	// solution cache; AllocCacheMisses counts solves that fell through to
	// the full pipeline; AllocCacheEvictions counts cached solutions dropped
	// at capacity.
	AllocCacheHits      *Counter
	AllocCacheMisses    *Counter
	AllocCacheEvictions *Counter
	// AllocWarmStartIters observes the subgradient iterations-to-convergence
	// of warm-started solves (cold solves are visible through the journal's
	// lambda_iters instead).
	AllocWarmStartIters *Histogram

	// EpochPhase observes the duration of each epoch flight-recorder phase
	// (snapshot, fingerprint, solve, repair, push, journal, measure and the
	// enclosing epoch), labelled by phase. Observed only when a tracer is
	// set, on the tracer's clock: wall time in harpd, virtual time in
	// simulation.
	EpochPhase *HistogramVec
	// EnergyTotal counts fleet joules attributed by this process (counter
	// semantics: not rewound or pre-loaded on warm restart — recovered totals
	// surface through the ledger and journal).
	EnergyTotal *FloatCounter
	// BudgetOverrunSeconds counts seconds the measured fleet power exceeded
	// the epoch's power budget.
	BudgetOverrunSeconds *FloatCounter
	// TracerDropped counts events evicted from the tracer ring.
	TracerDropped *Counter
	// JournalErrors counts journal records lost to write errors (the first
	// failing write and every record suppressed by the sticky error after it).
	JournalErrors *Counter

	// EpochDegraded counts epochs that fell off the primary solve onto a
	// degradation-ladder rung, labelled by rung (degraded-greedy,
	// degraded-stale, frozen).
	EpochDegraded *CounterVec
	// StoreRetries counts transient durable-state write errors absorbed by
	// the store's retry/backoff path.
	StoreRetries *Counter
}

// NewMetrics creates the standard instrument bundle on the registry.
func NewMetrics(r *Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Decisions:        r.Counter("harp_decisions_total", "Allocation decisions pushed to applications."),
		Reallocations:    r.Counter("harp_reallocations_total", "System-wide allocation recomputations."),
		Samples:          r.Counter("harp_measure_samples_total", "Measurement samples fed to the resource manager."),
		ExplorationSteps: r.Counter("harp_exploration_steps_total", "Exploration configurations started."),
		Sessions:         r.Gauge("harp_sessions", "Registered application sessions."),
		CoresGranted:     r.Gauge("harp_cores_granted", "Isolated physical cores currently granted."),
		MeasureJitter:    r.Histogram("harp_measure_jitter_seconds", "Absolute deviation of the measure loop from its cadence.", JitterBuckets),

		SessionsLive:        r.Gauge("harp_sessions_live", "Sessions currently in the live state."),
		SessionsReaped:      r.Counter("harp_sessions_reaped_total", "Sessions deregistered by the liveness reaper."),
		SessionsQuarantined: r.Counter("harp_sessions_quarantined_total", "Transitions of sessions into quarantine."),
		SessionsReadmitted:  r.Counter("harp_sessions_readmitted_total", "Suspect or quarantined sessions that resumed reporting."),
		WriteTimeouts:       r.Counter("harp_write_timeouts_total", "Connection writes that missed their deadline or failed."),
		Reconnects:          r.Counter("harp_session_reconnects_total", "Registrations that resumed a previously ended instance."),

		SessionsRejected:   r.Counter("harp_sessions_rejected_total", "Registrations refused by admission control."),
		StoreSnapshotAge:   r.Gauge("harp_store_snapshot_age_seconds", "Seconds since the last durable-state snapshot."),
		StoreSnapshotBytes: r.Gauge("harp_store_snapshot_bytes", "Size of the last durable-state snapshot."),
		StoreWALRecords:    r.Counter("harp_store_wal_records_total", "Records appended to the durable-state write-ahead log."),
		StoreReplaySeconds: r.Gauge("harp_store_replay_seconds", "Duration of the last durable-state recovery replay."),
		StoreCorruptions:   r.Counter("harp_store_corruptions_total", "Corruption events detected in the durable-state store."),

		AllocCacheHits:      r.Counter("harp_alloc_cache_hits_total", "Allocator solves served from the fingerprinted solution cache."),
		AllocCacheMisses:    r.Counter("harp_alloc_cache_misses_total", "Allocator solves that missed the solution cache."),
		AllocCacheEvictions: r.Counter("harp_alloc_cache_evictions_total", "Cached allocator solutions evicted at capacity."),
		AllocWarmStartIters: r.Histogram("harp_alloc_warm_start_iters", "Subgradient iterations to convergence for warm-started solves.", IterationBuckets),

		EpochPhase:           r.HistogramVec("harp_epoch_phase_seconds", "Wall time per epoch flight-recorder phase.", "phase", LatencyBuckets),
		EnergyTotal:          r.FloatCounter("harp_energy_joules_total", "Fleet energy attributed by this process."),
		BudgetOverrunSeconds: r.FloatCounter("harp_budget_overrun_seconds_total", "Seconds the measured fleet power exceeded the epoch power budget."),
		TracerDropped:        r.Counter("harp_tracer_dropped_total", "Events evicted from the tracer ring."),
		JournalErrors:        r.Counter("harp_journal_errors_total", "Journal records lost to write errors."),

		EpochDegraded: r.CounterVec("harp_epoch_degraded_total", "Epochs resolved by a degradation-ladder rung.", "rung"),
		StoreRetries:  r.Counter("harp_store_retries_total", "Transient durable-state write errors absorbed by retry."),
	}
}
