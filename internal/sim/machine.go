package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Default machine parameters.
const (
	// DefaultQuantum is the scheduling/accounting time step.
	DefaultQuantum = 10 * time.Millisecond
	// DefaultMigrationStall is the progress lost when the resource manager
	// moves a process to different cores (cache refill, thread migration).
	DefaultMigrationStall = 8 * time.Millisecond
	// rebalanceEvery is how often an OS scheduler that tracks utilisation
	// re-places threads even without topology changes (load-balancing
	// ticks).
	rebalanceEvery = 200 * time.Millisecond
)

// ErrMachineIdle is returned by RunUntilIdle when no process finishes within
// the allowed horizon.
var ErrMachineIdle = errors.New("sim: horizon reached before machine became idle")

// Option configures a Machine.
type Option interface{ apply(*Machine) }

type optionFunc func(*Machine)

func (f optionFunc) apply(m *Machine) { f(m) }

// WithGovernor selects the DVFS/idle governor model.
func WithGovernor(g Governor) Option {
	return optionFunc(func(m *Machine) { m.governor = g })
}

type ticker struct {
	period time.Duration
	next   time.Duration
	fn     func(now time.Duration)
	dead   bool
}

// Machine simulates one heterogeneous computer: topology, an OS scheduler,
// running processes, and energy sensors. It is strictly single-goroutine;
// all callbacks fire on the caller's goroutine during Step.
type Machine struct {
	plat           *platform.Platform
	topo           []HWInfo
	sched          Scheduler
	governor       Governor
	migrationStall time.Duration
	lastPlace      time.Duration

	now       time.Duration
	nextID    ProcID
	procs     map[ProcID]*Proc
	order     []ProcID
	dirty     bool
	placement map[ProcID][]HWThread
	tickers   []*ticker

	energy  EnergyReading
	onStart []func(*Proc)
	onExit  []func(*Proc)

	// scratch buffers reused across steps; Step carves each process's
	// slots and busy fractions out of slots and busy
	loads    []int
	busyCore []int
	busyByHW []float64
	states   []evalState
	slots    []workload.Slot
	busy     []float64
}

// evalState is one process's response within a quantum.
type evalState struct {
	proc  *Proc
	slots []workload.Slot
	hws   []HWThread
	resp  workload.Response
}

// New creates a machine for the platform with the given OS-level scheduler.
func New(plat *platform.Platform, sched Scheduler, opts ...Option) (*Machine, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	m := &Machine{
		plat:           plat,
		sched:          sched,
		governor:       GovernorPowersave,
		migrationStall: DefaultMigrationStall,
		procs:          make(map[ProcID]*Proc),
		placement:      make(map[ProcID][]HWThread),
	}
	for _, o := range opts {
		o.apply(m)
	}
	if m.governor < GovernorPowersave || m.governor > GovernorPerformance {
		return nil, fmt.Errorf("sim: bad governor %d", m.governor)
	}

	core := 0
	var id HWThread
	for kindIdx, k := range plat.Kinds {
		for c := 0; c < k.Count; c++ {
			for s := 0; s < k.SMT; s++ {
				m.topo = append(m.topo, HWInfo{
					ID:   id,
					Core: core,
					Kind: platform.KindID(kindIdx),
				})
				id++
			}
			core++
		}
	}
	m.loads = make([]int, len(m.topo))
	m.busyCore = make([]int, core)
	m.busyByHW = make([]float64, len(m.topo))
	m.energy.ByKindJ = make([]float64, len(plat.Kinds))
	return m, nil
}

// Platform returns the machine's hardware description.
func (m *Machine) Platform() *platform.Platform { return m.plat }

// Now returns the current virtual time.
func (m *Machine) Now() time.Duration { return m.now }

// Topology returns a copy of the hardware-thread table.
func (m *Machine) Topology() []HWInfo { return slices.Clone(m.topo) }

// Energy returns a snapshot of the machine's energy sensors.
func (m *Machine) Energy() EnergyReading {
	e := m.energy
	e.ByKindJ = slices.Clone(e.ByKindJ)
	return e
}

// OnProcStart registers a callback fired whenever a process starts.
func (m *Machine) OnProcStart(fn func(*Proc)) { m.onStart = append(m.onStart, fn) }

// OnProcExit registers a callback fired whenever a process finishes.
func (m *Machine) OnProcExit(fn func(*Proc)) { m.onExit = append(m.onExit, fn) }

// Every schedules fn to run each period of virtual time (first firing one
// period from now). The returned function cancels the ticker.
func (m *Machine) Every(period time.Duration, fn func(now time.Duration)) (cancel func()) {
	t := &ticker{period: period, next: m.now + period, fn: fn}
	m.tickers = append(m.tickers, t)
	return func() { t.dead = true }
}

// Start launches a process running the given profile. The instance name must
// be unique among live processes. The process starts with its moldable
// default thread count and unrestricted affinity.
func (m *Machine) Start(p *workload.Profile, instance string) (*Proc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if instance == "" {
		instance = p.Name
	}
	for _, pid := range m.order {
		if m.procs[pid].name == instance {
			return nil, fmt.Errorf("sim: instance %q already running", instance)
		}
	}
	m.nextID++
	proc := &Proc{
		id:          m.nextID,
		name:        instance,
		profile:     p,
		threads:     p.Threads(m.plat),
		workLeft:    p.WorkGI,
		startupLeft: p.StartupGI,
		startedAt:   m.now,
		utilEMA:     mathx.NewEMA(0.05),
	}
	proc.counters.CPUTimeByKind = make([]float64, len(m.plat.Kinds))
	m.procs[proc.id] = proc
	m.order = append(m.order, proc.id)
	m.dirty = true
	for _, fn := range m.onStart {
		fn(proc)
	}
	return proc, nil
}

// Proc returns the live process with the given ID.
func (m *Machine) Proc(id ProcID) (*Proc, error) {
	p, ok := m.procs[id]
	if !ok {
		return nil, fmt.Errorf("sim: no live process %d", id)
	}
	return p, nil
}

// SetThreads changes a process's parallelisation degree (libharp's scalable
// knob). Static applications cannot be rescaled. A migration stall is
// charged.
func (m *Machine) SetThreads(id ProcID, n int) error {
	p, err := m.Proc(id)
	if err != nil {
		return err
	}
	if p.profile.Adaptivity == workload.Static {
		return fmt.Errorf("sim: %s is static; cannot change threads", p.name)
	}
	if n < 1 {
		return fmt.Errorf("sim: thread count %d", n)
	}
	if n == p.threads {
		return nil
	}
	p.threads = n
	p.stallUntil = m.now + m.migrationStall
	m.dirty = true
	return nil
}

// SetAffinity restricts a process to the given hardware threads (nil clears
// the restriction). A migration stall is charged.
func (m *Machine) SetAffinity(id ProcID, hw []HWThread) error {
	p, err := m.Proc(id)
	if err != nil {
		return err
	}
	if hw == nil {
		p.affinity = nil
	} else {
		if len(hw) == 0 {
			return fmt.Errorf("sim: empty affinity for %s", p.name)
		}
		for _, h := range hw {
			if h < 0 || int(h) >= len(m.topo) {
				return fmt.Errorf("sim: hardware thread %d out of range", h)
			}
		}
		cp := slices.Clone(hw)
		slices.Sort(cp)
		p.affinity = slices.Compact(cp)
	}
	p.stallUntil = m.now + m.migrationStall
	m.dirty = true
	return nil
}

// SetRateTax charges the process a constant fraction of its useful progress,
// modelling management overhead (perf multiplexing, protocol traffic, RM
// CPU use — §6.6).
func (m *Machine) SetRateTax(id ProcID, tax float64) error {
	p, err := m.Proc(id)
	if err != nil {
		return err
	}
	if tax < 0 || tax >= 1 {
		return fmt.Errorf("sim: rate tax %g", tax)
	}
	p.rateTax = tax
	return nil
}

// Step advances the machine by one quantum.
func (m *Machine) Step() error {
	if m.now-m.lastPlace >= rebalanceEvery && m.sched.TracksUtil() {
		m.dirty = true
	}
	if m.dirty {
		if err := m.place(); err != nil {
			return err
		}
	}
	dt := DefaultQuantum.Seconds()

	// Hardware-thread loads and per-core busy sibling counts.
	for i := range m.loads {
		m.loads[i] = 0
		m.busyByHW[i] = 0
	}
	for i := range m.busyCore {
		m.busyCore[i] = 0
	}
	for _, pid := range m.order {
		for _, hw := range m.placement[pid] {
			m.loads[hw]++
		}
	}
	for hw, l := range m.loads {
		if l > 0 {
			m.busyCore[m.topo[hw].Core]++
		}
	}
	busyFreq := m.governor.busyFreqScale()

	// First pass: unconstrained responses.
	need := 0
	for _, pid := range m.order {
		need += len(m.placement[pid])
	}
	if need > len(m.slots) {
		m.slots = make([]workload.Slot, need)
		m.busy = make([]float64, need)
	}
	states := m.states[:0]
	off := 0
	var totalTraffic float64
	for _, pid := range m.order {
		p := m.procs[pid]
		states = append(states, evalState{proc: p})
		st := &states[len(states)-1]
		if m.now >= p.stallUntil {
			asg := m.placement[pid]
			if len(asg) > 0 {
				end := off + len(asg)
				st.hws = asg
				st.slots = m.slots[off:end:end]
				for i, hw := range asg {
					info := m.topo[hw]
					st.slots[i] = workload.Slot{
						Kind:       info.Kind,
						BusyOnCore: m.busyCore[info.Core],
						Share:      1 / float64(m.loads[hw]),
						FreqScale:  busyFreq,
					}
				}
				st.resp = p.profile.Respond(m.plat, st.slots, workload.Conditions{MemBWGips: m.plat.MemBWGips}, m.busy[off:end:end])
				totalTraffic += st.resp.MemTraffic
				off = end
			}
		}
	}

	// Memory-bandwidth arbitration: if aggregate traffic exceeds the
	// platform cap, give every process a proportional share and re-evaluate.
	if totalTraffic > m.plat.MemBWGips {
		for i := range states {
			st := &states[i]
			if st.resp.MemTraffic <= 0 {
				continue
			}
			share := m.plat.MemBWGips * st.resp.MemTraffic / totalTraffic
			st.resp = st.proc.profile.Respond(m.plat, st.slots, workload.Conditions{MemBWGips: share}, st.resp.Busy)
		}
	}

	// Advance processes, meter busy time and per-process dynamic energy.
	var finished []ProcID
	for i := range states {
		st := &states[i]
		p := st.proc
		useful := st.resp.UsefulRate * (1 - p.rateTax)
		var busySum float64
		for j, b := range st.resp.Busy {
			hw := st.hws[j]
			m.busyByHW[hw] += b
			info := m.topo[hw]
			kind := &m.plat.Kinds[info.Kind]
			p.counters.CPUTimeByKind[info.Kind] += b * dt
			p.counters.DynEnergyJ += kind.ActiveWatts * kind.PowerShare(m.busyCore[info.Core]) *
				b * busyFreq * busyFreq * dt
			busySum += b
		}
		p.counters.ExecutedGI += st.resp.ExecRate * dt
		if p.threads > 0 {
			p.utilEMA.Add(mathx.Clamp(busySum/float64(p.threads), 0, 1))
		}

		adv := useful * dt
		if p.startupLeft > 0 {
			if adv <= p.startupLeft {
				p.startupLeft -= adv
				adv = 0
			} else {
				adv -= p.startupLeft
				p.startupLeft = 0
			}
		}
		if adv > 0 {
			if adv >= p.workLeft {
				frac := p.workLeft / adv // fraction of the quantum actually needed
				p.counters.UsefulGI += p.workLeft
				p.workLeft = 0
				p.done = true
				p.finishedAt = m.now + time.Duration(frac*float64(DefaultQuantum))
				finished = append(finished, p.id)
			} else {
				p.workLeft -= adv
				p.counters.UsefulGI += adv
			}
		}
	}
	clear(states) // keep no finished process alive through the scratch
	m.states = states[:0]

	// Machine-level energy metering.
	uncore := m.plat.UncoreWatts * dt
	m.energy.UncoreJ += uncore
	m.energy.PackageJ += uncore
	hwIdx := 0
	coreIdx := 0
	for kindIdx, k := range m.plat.Kinds {
		var kindJ float64
		for c := 0; c < k.Count; c++ {
			coreBusy := false
			share := k.PowerShare(m.busyCore[coreIdx])
			var dyn float64
			for s := 0; s < k.SMT; s++ {
				if m.loads[hwIdx] > 0 {
					coreBusy = true
				}
				dyn += k.ActiveWatts * share * m.busyByHW[hwIdx] * busyFreq * busyFreq
				hwIdx++
			}
			base := m.governor.idleWatts(k)
			if coreBusy {
				base = k.IdleWatts
			}
			kindJ += (base + dyn) * dt
			coreIdx++
		}
		m.energy.ByKindJ[kindIdx] += kindJ
		m.energy.PackageJ += kindJ
	}

	m.now += DefaultQuantum

	// Retire finished processes.
	for _, pid := range finished {
		p := m.procs[pid]
		delete(m.procs, pid)
		m.order = slices.DeleteFunc(m.order, func(id ProcID) bool { return id == pid })
		m.dirty = true
		for _, fn := range m.onExit {
			fn(p)
		}
	}

	// Fire tickers.
	alive := m.tickers[:0]
	for _, t := range m.tickers {
		for !t.dead && t.next <= m.now {
			t.fn(m.now)
			t.next += t.period
		}
		if !t.dead {
			alive = append(alive, t)
		}
	}
	m.tickers = alive
	return nil
}

// Run advances the machine by d of virtual time.
func (m *Machine) Run(d time.Duration) error {
	end := m.now + d
	for m.now < end {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilIdle steps until every process has finished, or errors with
// ErrMachineIdle once the horizon is exceeded.
func (m *Machine) RunUntilIdle(horizon time.Duration) error {
	end := m.now + horizon
	for len(m.order) > 0 {
		if m.now >= end {
			return fmt.Errorf("%w (%v elapsed, %d procs left)", ErrMachineIdle, m.now, len(m.order))
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// place invokes the scheduler and validates its output, which the machine
// keeps as the placement.
func (m *Machine) place() error {
	views := make([]ProcView, 0, len(m.order))
	for _, pid := range m.order {
		views = append(views, m.procs[pid].view())
	}
	asg := m.sched.Place(m.Topology(), views)
	for _, pid := range m.order {
		p := m.procs[pid]
		hws, ok := asg[pid]
		if !ok {
			return fmt.Errorf("sim: scheduler %s ignored process %s", m.sched.Name(), p.name)
		}
		if len(hws) != p.threads {
			return fmt.Errorf("sim: scheduler %s placed %d threads for %s, want %d",
				m.sched.Name(), len(hws), p.name, p.threads)
		}
		for _, h := range hws {
			if h < 0 || int(h) >= len(m.topo) {
				return fmt.Errorf("sim: scheduler %s placed %s on bad hw thread %d",
					m.sched.Name(), p.name, h)
			}
			if p.affinity != nil && !slices.Contains(p.affinity, h) {
				return fmt.Errorf("sim: scheduler %s violated affinity of %s (hw %d)",
					m.sched.Name(), p.name, h)
			}
		}
	}
	m.placement = asg
	m.dirty = false
	m.lastPlace = m.now
	return nil
}
