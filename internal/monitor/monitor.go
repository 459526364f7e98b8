// Package monitor implements HARP's runtime performance and power
// monitoring (§5.1): per-application IPS sampling in the style of Linux
// perf (with multiplexing noise), and per-application power attribution
// built on package-level energy counters in the style of EnergAt, extended
// with per-core-kind power coefficients (Eq. 3) because plain EnergAt does
// not distinguish heterogeneous core types. Utility and power streams are
// smoothed with an exponential moving average (α = 0.1).
package monitor

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/telemetry"
)

// DefaultSmoothing is the EMA factor from the paper (§5.1).
const DefaultSmoothing = 0.1

// Option configures a Monitor.
type Option interface{ apply(*Monitor) }

type optionFunc func(*Monitor)

func (f optionFunc) apply(m *Monitor) { f(m) }

// WithSeed seeds the deterministic noise generator.
func WithSeed(seed int64) Option {
	return optionFunc(func(m *Monitor) { m.rng = rand.New(rand.NewSource(seed)) })
}

// WithTracer emits an EvMonitorSample event per Sample tick carrying the
// per-kind busy hardware-thread seconds (nil disables tracing).
func WithTracer(t *telemetry.Tracer) Option {
	return optionFunc(func(m *Monitor) { m.tracer = t })
}

// WithMetrics aggregates each Sample tick's duration into the flight
// recorder's "measure" phase histogram (nil disables).
func WithMetrics(mx *telemetry.Metrics) Option {
	return optionFunc(func(m *Monitor) {
		if mx != nil {
			m.measureHist = mx.EpochPhase.With(telemetry.PhaseMeasure)
		}
	})
}

// Measurement is one per-application sample.
type Measurement struct {
	// IPS is the raw instructions-per-second reading in GI/s.
	IPS float64
	// UsefulRate is the application's true useful rate — only available when
	// the application itself exports a utility metric through libharp.
	UsefulRate float64
	// PowerW is the raw attributed power in watts.
	PowerW float64
	// SmoothedIPS and SmoothedPower are the EMA-filtered streams HARP's
	// exploration consumes.
	SmoothedIPS   float64
	SmoothedPower float64
}

type appState struct {
	last     sim.Counters
	cur      sim.Counters // scratch snapshot, swapped with last after each sample
	tByK     []float64    // per-kind busy-time delta scratch, reused per tick
	ipsEMA   *mathx.EMA
	powerEMA *mathx.EMA
	totalJ   float64
}

// Monitor samples per-application utility and power from a simulated
// machine's counters, exactly as HARP would from perf + RAPL on real
// hardware.
type Monitor struct {
	machine     *sim.Machine
	gamma       []float64 // per-kind power coefficient relative to the most efficient kind
	static      float64   // estimated static (idle + uncore) watts subtracted before attribution
	noise       float64   // relative σ of perf/RAPL measurement noise: 0.03, tests override it
	rng         *rand.Rand
	tracer      *telemetry.Tracer
	measureHist *telemetry.Histogram

	apps       map[sim.ProcID]*appState
	lastEnergy sim.EnergyReading
	lastTime   time.Duration

	// Scratch buffers reused across Sample calls — sampling runs every 50 ms
	// of virtual time for every tracked process, so the per-tick garbage adds
	// up over a multi-minute simulated run.
	idScratch       []sim.ProcID
	deltaScratch    []sampleDelta
	totalByKind     []float64
	occupancyByKind []float64
	perKindDyn      []float64
	out             map[sim.ProcID]Measurement
}

// sampleDelta is the per-app scratch record built by Sample. The per-kind
// busy-time delta lives on the appState so the slice is reused across ticks.
type sampleDelta struct {
	id   sim.ProcID
	st   *appState
	exec float64
	used float64
}

// New creates a monitor for the machine. The power coefficients γ (Eq. 3)
// come from the hardware description's per-kind active power — the paper
// determines them offline.
func New(machine *sim.Machine, opts ...Option) (*Monitor, error) {
	if machine == nil {
		return nil, errors.New("monitor: nil machine")
	}
	plat := machine.Platform()
	base := plat.Kinds[len(plat.Kinds)-1].ActiveWatts
	gamma := make([]float64, len(plat.Kinds))
	for i, k := range plat.Kinds {
		gamma[i] = k.ActiveWatts / base
	}
	// Static floor: uncore plus every core in its deepest idle state. Using
	// the floor (rather than a mean idle estimate) guarantees the dynamic
	// residual attributed to applications never collapses to zero for small
	// allocations.
	var static float64
	for _, k := range plat.Kinds {
		static += float64(k.Count) * k.SleepWatts
	}
	static += plat.UncoreWatts

	m := &Monitor{
		machine:    machine,
		gamma:      gamma,
		static:     static,
		noise:      0.03,
		rng:        rand.New(rand.NewSource(1)),
		apps:       make(map[sim.ProcID]*appState),
		lastEnergy: machine.Energy(),
		lastTime:   machine.Now(),
	}
	for _, o := range opts {
		o.apply(m)
	}
	return m, nil
}

// Track starts monitoring a process.
func (m *Monitor) Track(id sim.ProcID) error {
	p, err := m.machine.Proc(id)
	if err != nil {
		return err
	}
	m.apps[id] = &appState{
		last:     p.Counters(),
		ipsEMA:   mathx.NewEMA(DefaultSmoothing),
		powerEMA: mathx.NewEMA(DefaultSmoothing),
	}
	return nil
}

// Untrack stops monitoring a process and returns its total attributed energy.
func (m *Monitor) Untrack(id sim.ProcID) float64 {
	st, ok := m.apps[id]
	delete(m.apps, id)
	if !ok {
		return 0
	}
	return st.totalJ
}

// ResetSmoothing clears a process's EMA streams — HARP does this when an
// application switches to a new operating point so old-configuration samples
// don't bleed into the new one.
func (m *Monitor) ResetSmoothing(id sim.ProcID) {
	if st, ok := m.apps[id]; ok {
		st.ipsEMA.Reset()
		st.powerEMA.Reset()
	}
}

// Sample reads all tracked processes since the previous call and returns
// their measurements. It must be called at a fixed cadence (HARP uses 50 ms,
// §5.3). Processes that exited since the last sample are skipped.
//
// The returned map is reused by the next Sample call — callers must consume
// (or copy) it before sampling again. Every caller in this repo reads it
// within the same control cycle.
func (m *Monitor) Sample() map[sim.ProcID]Measurement {
	sp := m.tracer.BeginPhase(telemetry.PhaseMeasure, m.measureHist)
	defer sp.End()
	now := m.machine.Now()
	dt := (now - m.lastTime).Seconds()
	energy := m.machine.Energy()
	if m.out == nil {
		m.out = make(map[sim.ProcID]Measurement, len(m.apps))
	} else {
		clear(m.out)
	}
	out := m.out
	if dt <= 0 {
		return out
	}

	// Gather per-app busy-time deltas per kind, in sorted-ID order — the
	// jitter RNG is consumed per app, so the order is part of the
	// deterministic results.
	ids := m.idScratch[:0]
	for id := range m.apps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	m.idScratch = ids

	deltas := m.deltaScratch[:0]
	totalWeighted := 0.0 // Σ_k T_k·γ_k across tracked apps
	for _, id := range ids {
		st := m.apps[id]
		p, err := m.machine.Proc(id)
		if err != nil {
			continue // exited; Untrack reports the final energy
		}
		p.CountersInto(&st.cur)
		d := sampleDelta{
			id:   id,
			st:   st,
			exec: st.cur.ExecutedGI - st.last.ExecutedGI,
			used: st.cur.UsefulGI - st.last.UsefulGI,
		}
		if cap(st.tByK) < len(st.cur.CPUTimeByKind) {
			st.tByK = make([]float64, len(st.cur.CPUTimeByKind))
		}
		st.tByK = st.tByK[:len(st.cur.CPUTimeByKind)]
		for k := range st.cur.CPUTimeByKind {
			st.tByK[k] = st.cur.CPUTimeByKind[k] - st.last.CPUTimeByKind[k]
			totalWeighted += st.tByK[k] * m.gamma[k]
		}
		deltas = append(deltas, d)
	}
	m.deltaScratch = deltas

	// Dynamic energy to distribute.
	plat := m.machine.Platform()
	multiplex := 1 + 0.1*float64(len(deltas)-1) // perf multiplexing inflates jitter

	// Busy-time totals per kind, and the estimated "occupancy" static power
	// of the cores kept out of deep idle by the tracked applications. Plain
	// EnergAt would attribute this idle overhead to the applications; we
	// subtract it so the attribution targets dynamic energy.
	if len(m.totalByKind) != len(plat.Kinds) {
		m.totalByKind = make([]float64, len(plat.Kinds))
		m.occupancyByKind = make([]float64, len(plat.Kinds))
		m.perKindDyn = make([]float64, len(plat.Kinds))
	}
	totalByKind := m.totalByKind
	for k := range totalByKind {
		totalByKind[k] = 0
	}
	for _, d := range deltas {
		for k, v := range d.st.tByK {
			totalByKind[k] += v
		}
	}
	var occupancyJ float64
	occupancyByKind := m.occupancyByKind
	for k, kind := range plat.Kinds {
		coreSeconds := totalByKind[k] / float64(kind.SMT)
		occupancyByKind[k] = (kind.IdleWatts - kind.SleepWatts) * coreSeconds
		occupancyJ += occupancyByKind[k]
	}

	if plat.EnergySensors == "island" {
		// Per-island sensors: attribute each island's dynamic energy by
		// busy-time share within that island.
		perKindDyn := m.perKindDyn
		for k := range plat.Kinds {
			staticK := float64(plat.Kinds[k].Count)*plat.Kinds[k].SleepWatts*dt + occupancyByKind[k]
			dyn := (energy.ByKindJ[k] - m.lastEnergy.ByKindJ[k]) - staticK
			if dyn < 0 {
				dyn = 0
			}
			perKindDyn[k] = dyn
		}
		for _, d := range deltas {
			var joules float64
			for k, tk := range d.st.tByK {
				if totalByKind[k] > 0 {
					joules += perKindDyn[k] * tk / totalByKind[k]
				}
			}
			out[d.id] = m.finish(d.st, d.exec, d.used, joules, dt, multiplex)
		}
	} else {
		// Package counter: split E_dyn into per-kind shares via the power
		// coefficients (Eq. 3), then to apps by busy time.
		dynJ := (energy.PackageJ - m.lastEnergy.PackageJ) - m.static*dt - occupancyJ
		if dynJ < 0 {
			dynJ = 0
		}
		var pBase float64 // watts per busy-thread-second of the most efficient kind
		if totalWeighted > 0 {
			pBase = dynJ / totalWeighted
		}
		for _, d := range deltas {
			var joules float64
			for k, tk := range d.st.tByK {
				joules += tk * m.gamma[k] * pBase
			}
			out[d.id] = m.finish(d.st, d.exec, d.used, joules, dt, multiplex)
		}
	}

	if m.tracer.Enabled() {
		ev := telemetry.Event{Kind: telemetry.EvMonitorSample, Seq: len(deltas)}
		for k := range totalByKind {
			if k >= len(ev.Vals) {
				break
			}
			ev.Vals[k] = totalByKind[k]
		}
		m.tracer.Emit(ev)
	}

	m.lastEnergy = energy
	m.lastTime = now
	return out
}

// finish applies measurement noise and smoothing, updates state, and builds
// the Measurement. The current snapshot in st.cur becomes st.last by buffer
// swap, so neither side allocates on the next tick.
func (m *Monitor) finish(st *appState, exec, used, joules, dt, multiplex float64) Measurement {
	st.last, st.cur = st.cur, st.last
	st.totalJ += joules

	ips := exec / dt * m.jitter(multiplex)
	power := joules / dt * m.jitter(1)
	if ips < 0 {
		ips = 0
	}
	if power < 0 {
		power = 0
	}
	return Measurement{
		IPS:           ips,
		UsefulRate:    used / dt,
		PowerW:        power,
		SmoothedIPS:   st.ipsEMA.Add(ips),
		SmoothedPower: st.powerEMA.Add(power),
	}
}

// jitter returns a multiplicative noise factor.
func (m *Monitor) jitter(scale float64) float64 {
	if m.noise == 0 {
		return 1
	}
	return 1 + m.rng.NormFloat64()*m.noise*scale
}
