// Package cluster federates N machine-local resource managers under one
// fleet coordinator — the multi-node step toward the ROADMAP's
// millions-of-users scale (MARS's hierarchical coordinator-over-local-
// managers shape, PAPERS.md).
//
// Each simulated machine runs its own core.Manager on a shared virtual
// clock. The coordinator places incoming sessions by bin-packing on the
// sessions' operating-point tables, enforces the fleet-wide energy budget
// by distributing per-machine power caps, migrates sessions off hot or
// dying machines with the PR 3 reconnect contract (re-register + table and
// phase replay, transparent to the application), and survives its own
// death: a standby promotes itself from its copy of the last shipped
// ledger and reconciles against the machines that still answer.
//
// # Budget soundness
//
// The coordinator admits by worst-case demand: a session's demand is the
// maximum power over its table's usable operating points, an upper bound
// on anything the machine-local solver can choose (exploration is disabled
// on fleet machines). A session is placed only where admitted demand plus
// its own stays under the machine's cap, and the alive machines' caps
// always sum to at most the fleet budget — so actual fleet power can never
// exceed the budget, at any instant, including mid-migration (a migrating
// session's demand is reserved on the target before it leaves the source's
// books... see migrate()). check.CheckFleet verifies exactly this chain
// from the outside.
//
// # Determinism
//
// Every coordinator decision iterates sorted state (machine index order,
// the instance-sorted ledger), so same-seed harness runs produce
// byte-identical cluster journals — the chaos suites compare them. Like
// core.Manager, a Fleet is not goroutine-safe; one driver owns it.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Sentinel errors for client-facing fleet operations.
var (
	// ErrNoCoordinator: the active coordinator is dead and the standby has
	// not promoted yet (it does so on the next tick). Clients retry.
	ErrNoCoordinator = errors.New("cluster: no active coordinator")
	// ErrDuplicateSession: the instance is already registered, queued or
	// migrating somewhere in the fleet.
	ErrDuplicateSession = errors.New("cluster: duplicate session")
	// ErrUnknownSession: the instance is nowhere in the fleet.
	ErrUnknownSession = errors.New("cluster: unknown session")
	// ErrNoTable: placement needs an operating-point table with at least
	// one usable point — worst-case admission has no demand bound without
	// one.
	ErrNoTable = errors.New("cluster: session has no usable operating points")
)

// DefaultDeadAfter is how many consecutive missed heartbeats (ticks)
// declare a machine dead.
const DefaultDeadAfter = 3

// DefaultSnapshotEvery is the coordinator-to-standby shipping cadence in
// ticks.
const DefaultSnapshotEvery = 5

// migrateBatch bounds migration starts per tick, so a drain spreads over
// several ticks and kill-during-migration is a real window.
const migrateBatch = 4

// Config configures a Fleet.
type Config struct {
	// Machines is the fleet size (>= 1).
	Machines int
	// Platform is every machine's hardware model (required).
	Platform *platform.Platform
	// FleetBudgetW is the fleet-wide power budget, distributed across the
	// alive machines as per-machine caps. 0 disables budget enforcement.
	FleetBudgetW float64
	// Static disables bin-packing and migration: sessions are spread
	// round-robin over fixed budget/N partitions. The Fig-style experiment's
	// baseline.
	Static bool
	// Verify runs check.CheckFleet at the end of every tick and fails the
	// tick on a violation. Chaos suites turn it on.
	Verify bool
	// Tracer receives cluster transition events (and the machine managers'
	// events); its clock is the harness's virtual clock. May be nil.
	Tracer *telemetry.Tracer
	// Journal receives the coordinator's JSONL transition journal. May be
	// nil. Same-seed runs write byte-identical journals.
	Journal io.Writer
	// MachineJournal, when set, supplies a per-machine decision-journal
	// writer (called once per machine at construction).
	MachineJournal func(id string) io.Writer
}

func (c *Config) validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("cluster: fleet of %d machines", c.Machines)
	}
	if c.Platform == nil {
		return errors.New("cluster: config without platform")
	}
	return nil
}

// SessionSpec is everything the coordinator needs to place (and later
// re-home) one session: the registration tuple plus the table and phase to
// replay — the client reconnect contract.
type SessionSpec struct {
	Instance   string
	App        string
	Adaptivity workload.Adaptivity
	OwnUtility bool
	Phase      string
	Table      *opoint.Table
}

// sessionRec is the coordinator's ledger entry for one session.
type sessionRec struct {
	spec    SessionSpec
	demandW float64
	// machine is the owning (or, mid-migration, reserving) machine; ""
	// while the session waits for placement.
	machine string
	// inflight marks the remove-then-add migration window: the session has
	// left its source and its demand is reserved on machine, but it is not
	// registered anywhere.
	inflight bool
}

// machine is one fleet member.
type machine struct {
	id string
	// mgr is the machine-local resource manager; nil once the coordinator
	// declared the machine dead and discarded it.
	mgr *core.Manager
	// killed is the fault-injection ground truth: a killed machine stops
	// heartbeating and serving, but the coordinator only learns via the
	// missed-heartbeat deadline.
	killed   bool
	lastBeat uint64
}

// migration is one in-flight session move.
type migration struct {
	instance, from, to string
}

// coordinator is the (replaceable) fleet brain. All its state is rebuilt
// on failover from the standby's copy plus machine reconciliation.
type coordinator struct {
	// ledger is every session the coordinator knows — placed, in flight or
	// awaiting re-home — sorted by instance.
	ledger []*sessionRec
	// admitted is the per-machine sum of admitted worst-case demand.
	admitted map[string]float64
	caps     map[string]float64
	// dead is the coordinator's belief (declared machines), which can lag
	// the killed ground truth by up to DefaultDeadAfter ticks.
	dead     map[string]bool
	inflight []migration
	// drainSrc is the machine currently being consolidated away ("" when
	// no drain is active).
	drainSrc string
	promoted bool
}

// standby holds what a coordinator replacement starts from: a copy of the
// ledger and the dead set as of the last ship.
type standby struct {
	ledger []sessionRec
	dead   map[string]bool
}

// Stats counts fleet transitions since construction.
type Stats struct {
	Placements    int
	Rejected      int
	Migrations    int
	MachineDeaths int
	Failovers     int
	Exits         int
	Shipments     int
}

// Health is the fleet's graded health surface.
type Health struct {
	// Status is ok, degraded (dead machines or unplaced sessions) or
	// failed (headless fleet or an invariant violation).
	Status        string `json:"status"`
	MachinesAlive int    `json:"machines_alive"`
	MachinesTotal int    `json:"machines_total"`
	// Coordinator is "primary" or "promoted-standby".
	Coordinator string `json:"coordinator"`
	Unplaced    int    `json:"unplaced"`
	InFlight    int    `json:"in_flight"`
	Failovers   int    `json:"failovers"`
	// InvariantErr is the last check.CheckFleet violation ("" when clean).
	InvariantErr string `json:"invariant_err,omitempty"`
}

// Fleet is N machines, an active coordinator and a standby on one virtual
// clock. Drive it with Submit/Deregister/PhaseChange between ticks and
// Tick once per adaptation period.
type Fleet struct {
	cfg      Config
	machines []*machine
	coord    *coordinator
	standby  standby
	// coordKilled marks the window between KillCoordinator and the next
	// tick's promotion.
	coordKilled bool
	// arrivals is the client-side queue: specs submitted but not yet
	// placed. It survives coordinator death — clients retry registration.
	arrivals []SessionSpec
	// queued is the set of instances in arrivals.
	queued map[string]bool
	tick   uint64
	stats  Stats
	health Health
	jw     io.Writer
	jerr   error
	// deadAfter and snapshotEvery are DefaultDeadAfter and
	// DefaultSnapshotEvery; tests shorten or stretch them.
	deadAfter, snapshotEvery int
}

// New builds a fleet: machines m0..m(N-1), a fresh coordinator, an empty
// standby.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, queued: make(map[string]bool), jw: cfg.Journal,
		deadAfter: DefaultDeadAfter, snapshotEvery: DefaultSnapshotEvery}
	for i := 0; i < cfg.Machines; i++ {
		id := fmt.Sprintf("m%d", i)
		var journal *telemetry.Journal
		if cfg.MachineJournal != nil {
			if w := cfg.MachineJournal(id); w != nil {
				journal = telemetry.NewJournal(w)
			}
		}
		// Each machine's manager builds its own default solver (solution
		// caches and warm state are not shared); the tracer is shared — ticks
		// run in machine index order, so interleaving stays deterministic.
		mgr, err := core.NewManager(core.Config{
			Platform:           cfg.Platform,
			DisableExploration: true,
			Coalesce:           core.CoalescePolicy{Enabled: true},
			Tracer:             cfg.Tracer,
			Journal:            journal,
		})
		if err != nil {
			return nil, err
		}
		f.machines = append(f.machines, &machine{id: id, mgr: mgr})
	}
	f.coord = f.newCoordinator(false)
	f.redistributeCaps()
	return f, nil
}

func (f *Fleet) newCoordinator(promoted bool) *coordinator {
	return &coordinator{
		admitted: make(map[string]float64),
		caps:     make(map[string]float64),
		dead:     make(map[string]bool),
		promoted: promoted,
	}
}

// find binary-searches the ledger: the index of instance's record, or the
// index it would be inserted at.
func (c *coordinator) find(instance string) (int, bool) {
	return slices.BinarySearchFunc(c.ledger, instance, func(rec *sessionRec, inst string) int {
		return strings.Compare(rec.spec.Instance, inst)
	})
}

// lookup returns instance's ledger record (nil if unknown).
func (c *coordinator) lookup(instance string) *sessionRec {
	if i, ok := c.find(instance); ok {
		return c.ledger[i]
	}
	return nil
}

// put inserts rec at its sorted ledger position, replacing any record of
// the same instance.
func (c *coordinator) put(rec *sessionRec) {
	i, ok := c.find(rec.spec.Instance)
	if ok {
		c.ledger[i] = rec
		return
	}
	c.ledger = slices.Insert(c.ledger, i, rec)
}

// maxDemandW is the worst-case admission bound: the maximum power over the
// table's usable points — an upper bound on any point the machine-local
// solver can select for the session.
func maxDemandW(t *opoint.Table) (float64, error) {
	if t == nil {
		return 0, ErrNoTable
	}
	best, found := 0.0, false
	for i := range t.Points {
		p := &t.Points[i]
		if p.Vector.IsZero() {
			continue
		}
		found = true
		if p.Power > best {
			best = p.Power
		}
	}
	if !found {
		return 0, ErrNoTable
	}
	return best, nil
}

// Submit queues a session for placement. The spec's table is required (see
// maxDemandW). Queued specs survive coordinator death — the queue models
// clients retrying registration.
func (f *Fleet) Submit(spec SessionSpec) error {
	if spec.Instance == "" || spec.App == "" {
		return errors.New("cluster: submit without instance or app")
	}
	if _, err := maxDemandW(spec.Table); err != nil {
		return err
	}
	if f.coordKilled {
		return ErrNoCoordinator
	}
	if f.queued[spec.Instance] || f.coord.lookup(spec.Instance) != nil {
		return ErrDuplicateSession
	}
	f.arrivals = append(f.arrivals, spec)
	f.queued[spec.Instance] = true
	return nil
}

// Deregister removes a session wherever it is: owned (deregistered from
// its machine), in flight (reservation released), queued or awaiting
// re-home.
func (f *Fleet) Deregister(instance string) error {
	if f.coordKilled {
		return ErrNoCoordinator
	}
	if f.queued[instance] {
		i := slices.IndexFunc(f.arrivals, func(s SessionSpec) bool { return s.Instance == instance })
		f.arrivals = slices.Delete(f.arrivals, i, i+1)
		delete(f.queued, instance)
		return nil
	}
	c := f.coord
	idx, ok := c.find(instance)
	if !ok {
		return ErrUnknownSession
	}
	rec := c.ledger[idx]
	if rec.machine != "" {
		c.admitted[rec.machine] -= rec.demandW
		if rec.inflight {
			for i := range c.inflight {
				if c.inflight[i].instance == instance {
					c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
					break
				}
			}
		} else if m := f.byID(rec.machine); m != nil && m.mgr != nil {
			if err := m.mgr.Deregister(instance); err != nil {
				return err
			}
		}
	}
	c.ledger = slices.Delete(c.ledger, idx, idx+1)
	f.stats.Exits++
	f.journal(journalRec{Tick: f.tick, Ev: "exit", Instance: instance, Machine: rec.machine})
	return nil
}

// PhaseChange records (and, when the session is placed, forwards) an
// application phase announcement, so a later re-home replays the current
// phase.
func (f *Fleet) PhaseChange(instance, phase string) error {
	if f.coordKilled {
		return ErrNoCoordinator
	}
	if f.queued[instance] {
		i := slices.IndexFunc(f.arrivals, func(s SessionSpec) bool { return s.Instance == instance })
		f.arrivals[i].Phase = phase
		return nil
	}
	rec := f.coord.lookup(instance)
	if rec == nil {
		return ErrUnknownSession
	}
	rec.spec.Phase = phase
	if rec.machine != "" && !rec.inflight {
		if m := f.byID(rec.machine); m != nil && m.mgr != nil {
			return m.mgr.PhaseChange(instance, phase)
		}
	}
	return nil
}

// KillMachine injects a faultsim machine-kill: the machine stops
// heartbeating and serving immediately; the coordinator discovers it via
// the missed-heartbeat deadline.
func (f *Fleet) KillMachine(id string) error {
	m := f.byID(id)
	if m == nil {
		return fmt.Errorf("cluster: kill of unknown machine %q", id)
	}
	m.killed = true
	f.journal(journalRec{Tick: f.tick, Ev: "machine-kill", Machine: id})
	return nil
}

// KillCoordinator injects a faultsim coordinator-kill: the active
// coordinator's state is gone; the standby promotes on the next tick.
func (f *Fleet) KillCoordinator() {
	f.coord = nil
	f.coordKilled = true
	f.journal(journalRec{Tick: f.tick, Ev: "coordinator-kill"})
}

// Owner reports which machine currently owns the instance ("" when the
// session is queued, in flight, awaiting re-home or unknown).
func (f *Fleet) Owner(instance string) string {
	if f.coord == nil {
		return ""
	}
	if rec := f.coord.lookup(instance); rec != nil && !rec.inflight {
		return rec.machine
	}
	return ""
}

// Stats returns transition counters since construction.
func (f *Fleet) Stats() Stats { return f.stats }

// Health returns the health surface graded at the end of the last tick.
func (f *Fleet) Health() Health { return f.health }

// Tick advances the fleet one adaptation period: standby promotion,
// heartbeat collection and death declaration, migration completion and
// starts, placement, per-machine manager ticks, snapshot shipping and
// health grading — all in a deterministic order.
func (f *Fleet) Tick() error {
	f.tick++
	if f.coordKilled {
		if err := f.promote(); err != nil {
			return err
		}
	}
	f.heartbeats()
	if err := f.completeMigrations(); err != nil {
		return err
	}
	if !f.cfg.Static {
		f.planDrain()
		if err := f.startMigrations(); err != nil {
			return err
		}
	}
	if err := f.place(); err != nil {
		return err
	}
	for _, m := range f.machines {
		if m.killed || m.mgr == nil {
			continue
		}
		if err := m.mgr.Tick(); err != nil {
			return fmt.Errorf("cluster: machine %s tick: %w", m.id, err)
		}
	}
	if f.tick%uint64(f.snapshotEvery) == 0 {
		f.ship()
	}
	return f.grade()
}

// byID resolves a machine by ID (nil if unknown).
func (f *Fleet) byID(id string) *machine {
	for _, m := range f.machines {
		if m.id == id {
			return m
		}
	}
	return nil
}

// aliveMachines lists, in index order, the machines the coordinator
// believes alive.
func (f *Fleet) aliveMachines() []*machine {
	out := make([]*machine, 0, len(f.machines))
	for _, m := range f.machines {
		if !f.coord.dead[m.id] {
			out = append(out, m)
		}
	}
	return out
}

// redistributeCaps splits the fleet budget equally over the machines the
// coordinator believes alive. Σ alive caps == budget at all times, the
// outer link of the budget-soundness chain.
func (f *Fleet) redistributeCaps() {
	if f.coord == nil {
		return
	}
	alive := f.aliveMachines()
	for _, m := range f.machines {
		f.coord.caps[m.id] = 0
	}
	if f.cfg.FleetBudgetW <= 0 || len(alive) == 0 {
		return
	}
	per := f.cfg.FleetBudgetW / float64(len(alive))
	for _, m := range alive {
		f.coord.caps[m.id] = per
	}
}

// heartbeats delivers this tick's heartbeats from non-killed machines and
// declares machines dead once deadAfter ticks pass without one. A declared
// machine's sessions go back to the placement queue (ledger entries with
// machine == "") and its manager is discarded.
func (f *Fleet) heartbeats() {
	c := f.coord
	for _, m := range f.machines {
		if !m.killed && m.mgr != nil {
			m.lastBeat = f.tick
		}
	}
	for _, m := range f.machines {
		if c.dead[m.id] || f.tick-m.lastBeat < uint64(f.deadAfter) {
			continue
		}
		c.dead[m.id] = true
		m.mgr = nil
		orphans := 0
		for _, rec := range c.ledger {
			if rec.machine != m.id {
				continue
			}
			// In-flight reservations on the dead target are aborted below
			// the same way owned sessions are orphaned: back to the queue.
			if rec.inflight {
				for i := range c.inflight {
					if c.inflight[i].instance == rec.spec.Instance {
						c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
						break
					}
				}
				rec.inflight = false
			}
			c.admitted[m.id] -= rec.demandW
			rec.machine = ""
			orphans++
		}
		c.admitted[m.id] = 0
		if c.drainSrc == m.id {
			c.drainSrc = ""
		}
		f.stats.MachineDeaths++
		f.journal(journalRec{Tick: f.tick, Ev: "machine-dead", Machine: m.id, N: orphans})
		f.emit(telemetry.Event{Kind: telemetry.EvClusterMachineDead, Stage: m.id, Vals: [4]float64{float64(orphans)}})
		f.redistributeCaps()
	}
}

// completeMigrations finishes the add half of every in-flight move: the
// session registers on its target with table and phase replayed. A target
// that died mid-flight sends the session back to the placement queue.
func (f *Fleet) completeMigrations() error {
	c := f.coord
	moves := c.inflight
	c.inflight = nil
	for _, mv := range moves {
		rec := c.lookup(mv.instance)
		m := f.byID(mv.to)
		if m == nil || m.mgr == nil || c.dead[mv.to] {
			c.admitted[mv.to] -= rec.demandW
			rec.machine, rec.inflight = "", false
			f.journal(journalRec{Tick: f.tick, Ev: "migrate-abort", Instance: mv.instance, From: mv.from, To: mv.to})
			continue
		}
		if err := f.registerOn(m, rec); err != nil {
			return fmt.Errorf("cluster: migrate %s to %s: %w", mv.instance, mv.to, err)
		}
		rec.inflight = false
		f.stats.Migrations++
		f.journal(journalRec{Tick: f.tick, Ev: "migrate-done", Instance: mv.instance, From: mv.from, To: mv.to})
		f.emit(telemetry.Event{Kind: telemetry.EvClusterMigrated, Instance: mv.instance, Stage: mv.from + "→" + mv.to})
	}
	return nil
}

// planDrain picks the consolidation source: the least-loaded non-empty
// alive machine whose whole population fits into the other alive machines'
// cap headroom. Draining it to empty lets the harness park the machine —
// the fleet-energy win over static partitioning. One drain at a time.
func (f *Fleet) planDrain() {
	c := f.coord
	if c.drainSrc != "" || len(c.inflight) > 0 {
		return
	}
	alive := f.aliveMachines()
	if len(alive) < 2 || f.cfg.FleetBudgetW <= 0 {
		return
	}
	var src *machine
	for _, m := range alive {
		if c.admitted[m.id] <= 0 {
			continue
		}
		if src == nil || c.admitted[m.id] < c.admitted[src.id] {
			src = m
		}
	}
	if src == nil {
		return
	}
	// Simulate best-fit of every source session into the headroom of the
	// other non-empty machines. Empty machines are not drain targets —
	// moving load onto one would shuffle sessions without reducing the
	// active machine count, the whole point of consolidating.
	head := make(map[string]float64)
	for _, m := range alive {
		if m != src && c.admitted[m.id] > 0 {
			head[m.id] = c.caps[m.id] - c.admitted[m.id]
		}
	}
	if len(head) == 0 {
		return
	}
	for _, rec := range c.ledger {
		if rec.machine != src.id {
			continue
		}
		best := ""
		for _, m := range alive {
			h, ok := head[m.id]
			if !ok || h < rec.demandW {
				continue
			}
			if best == "" || h < head[best] {
				best = m.id
			}
		}
		if best == "" {
			return // does not fully fit; no partial drains
		}
		head[best] -= rec.demandW
	}
	c.drainSrc = src.id
}

// startMigrations begins up to migrateBatch moves off the drain source (or
// off any machine whose admitted demand exceeds its cap — the hot case,
// defensive against future cap shrinking). Remove-then-add: the session
// deregisters from its source and its demand is reserved on the target
// now; registration on the target happens next tick.
func (f *Fleet) startMigrations() error {
	c := f.coord
	started := 0
	for _, src := range f.aliveMachines() {
		over := c.caps[src.id] > 0 && c.admitted[src.id] > c.caps[src.id]+1e-9
		if src.id != c.drainSrc && !over {
			continue
		}
		for _, rec := range c.ledger {
			if started >= migrateBatch {
				return nil
			}
			inst := rec.spec.Instance
			if rec.machine != src.id || rec.inflight {
				continue
			}
			dst := f.bestFit(rec.demandW, src.id, src.id == c.drainSrc)
			if dst == nil {
				continue
			}
			if src.mgr != nil {
				if err := src.mgr.Deregister(inst); err != nil {
					return fmt.Errorf("cluster: migrate %s off %s: %w", inst, src.id, err)
				}
			}
			c.admitted[src.id] -= rec.demandW
			c.admitted[dst.id] += rec.demandW
			rec.machine, rec.inflight = dst.id, true
			c.inflight = append(c.inflight, migration{instance: inst, from: src.id, to: dst.id})
			started++
			f.journal(journalRec{Tick: f.tick, Ev: "migrate-start", Instance: inst, From: src.id, To: dst.id})
		}
		if src.id == c.drainSrc && c.admitted[src.id] <= 1e-9 {
			c.drainSrc = ""
		}
	}
	return nil
}

// bestFit picks the alive machine (excluding skip) with the least cap
// headroom that still fits demand — best-fit packing, which consolidates
// load onto few machines. Uncapped fleets fill the lowest-index alive
// machine (maximal consolidation). With nonEmptyOnly, empty machines are
// excluded (drain moves must not open a machine the drain is trying to
// save).
func (f *Fleet) bestFit(demandW float64, skip string, nonEmptyOnly bool) *machine {
	c := f.coord
	var best *machine
	for _, m := range f.aliveMachines() {
		if m.id == skip || m.mgr == nil {
			continue
		}
		if nonEmptyOnly && c.admitted[m.id] <= 0 {
			continue
		}
		if f.cfg.FleetBudgetW <= 0 {
			return m // uncapped: first alive machine, maximal consolidation
		}
		if c.admitted[m.id]+demandW > c.caps[m.id]+1e-9 {
			continue
		}
		if best == nil || c.caps[m.id]-c.admitted[m.id] < c.caps[best.id]-c.admitted[best.id] {
			best = m
		}
	}
	return best
}

// staticTarget is the baseline placement: a fixed hash partition over all
// machines, dead or alive (static partitioning does not re-home).
func (f *Fleet) staticTarget(instance string) *machine {
	h := 0
	for i := 0; i < len(instance); i++ {
		h = h*31 + int(instance[i])
	}
	if h < 0 {
		h = -h
	}
	return f.machines[h%len(f.machines)]
}

// place admits the placement queue: first the ledger's unplaced sessions
// (orphans being re-homed, instance order), then the arrival queue in
// submission order. Unplaceable sessions stay queued and retry next tick.
func (f *Fleet) place() error {
	c := f.coord
	for _, rec := range c.ledger {
		if rec.machine != "" {
			continue
		}
		if err := f.placeRec(rec); err != nil {
			return err
		}
	}
	remaining := f.arrivals[:0]
	for i := range f.arrivals {
		spec := f.arrivals[i]
		demand, err := maxDemandW(spec.Table)
		if err != nil {
			return err
		}
		rec := &sessionRec{spec: spec, demandW: demand}
		if err := f.placeRec(rec); err != nil {
			return err
		}
		if rec.machine == "" {
			remaining = append(remaining, spec)
			continue
		}
		c.put(rec)
		delete(f.queued, spec.Instance)
	}
	f.arrivals = remaining
	return nil
}

// placeRec tries to place one session, leaving rec.machine == "" when no
// machine fits this tick.
func (f *Fleet) placeRec(rec *sessionRec) error {
	c := f.coord
	var dst *machine
	if f.cfg.Static {
		m := f.staticTarget(rec.spec.Instance)
		if m.mgr != nil && !c.dead[m.id] &&
			(f.cfg.FleetBudgetW <= 0 || c.admitted[m.id]+rec.demandW <= c.caps[m.id]+1e-9) {
			dst = m
		}
	} else {
		dst = f.bestFit(rec.demandW, "", false)
	}
	if dst == nil {
		f.stats.Rejected++
		f.journal(journalRec{Tick: f.tick, Ev: "reject", Instance: rec.spec.Instance})
		return nil
	}
	if err := f.registerOn(dst, rec); err != nil {
		return fmt.Errorf("cluster: place %s on %s: %w", rec.spec.Instance, dst.id, err)
	}
	c.admitted[dst.id] += rec.demandW
	rec.machine = dst.id
	f.stats.Placements++
	f.journal(journalRec{Tick: f.tick, Ev: "place", Instance: rec.spec.Instance, Machine: dst.id, DemandW: rec.demandW})
	f.emit(telemetry.Event{Kind: telemetry.EvClusterPlaced, Instance: rec.spec.Instance, Stage: dst.id, Power: rec.demandW})
	return nil
}

// registerOn performs the register + table/phase replay handshake on a
// machine's manager — identical for first placements, re-homes and
// migration completions (the reconnect contract).
func (f *Fleet) registerOn(m *machine, rec *sessionRec) error {
	if err := m.mgr.Register(rec.spec.Instance, rec.spec.App, rec.spec.Adaptivity, rec.spec.OwnUtility); err != nil {
		return err
	}
	if err := m.mgr.UploadTable(rec.spec.Instance, rec.spec.Table); err != nil {
		return err
	}
	if rec.spec.Phase != "" {
		if err := m.mgr.PhaseChange(rec.spec.Instance, rec.spec.Phase); err != nil {
			return err
		}
	}
	return nil
}

// ship hands the standby a copy of the coordinator's ledger and dead set.
// Records are copied by value, so later ledger changes never reach the
// standby; spec tables stay shared, as nothing in the fleet writes to one
// (machine managers copy the points on upload). Every session ships
// unplaced: at promotion the surviving machines are the only authority on
// ownership, so in particular an in-flight session is re-homed, never
// assumed to have completed its add half.
func (f *Fleet) ship() {
	c := f.coord
	ledger := make([]sessionRec, len(c.ledger))
	for i, rec := range c.ledger {
		ledger[i] = sessionRec{spec: rec.spec, demandW: rec.demandW}
	}
	f.standby = standby{ledger: ledger, dead: maps.Clone(c.dead)}
	f.stats.Shipments++
	f.journal(journalRec{Tick: f.tick, Ev: "ship", N: len(ledger)})
}

// promote replaces the dead coordinator: start from the standby's copy,
// then reconcile against every machine that still answers — machines are
// the authority on ownership, the copy on sessions that are currently
// nowhere. Anything in neither (placed and migrated away entirely inside
// the shipping interval) is recovered by the client's own
// re-registration, like any control-plane loss.
func (f *Fleet) promote() error {
	c := f.newCoordinator(true)
	for id := range f.standby.dead {
		c.dead[id] = true
	}
	// The standby is discarded below, so the new ledger adopts its records.
	c.ledger = make([]*sessionRec, len(f.standby.ledger))
	for i := range f.standby.ledger {
		c.ledger[i] = &f.standby.ledger[i]
	}
	recovered := len(c.ledger)
	// Reconcile: live machines are authoritative for ownership and state.
	for _, m := range f.machines {
		if m.killed || m.mgr == nil || c.dead[m.id] {
			continue
		}
		for _, si := range m.mgr.Sessions() {
			rec := c.lookup(si.Instance)
			if rec == nil {
				tbl, err := m.mgr.Table(si.Instance)
				if err != nil {
					return fmt.Errorf("cluster: promote reconcile: %w", err)
				}
				demand, err := maxDemandW(tbl)
				if err != nil {
					return fmt.Errorf("cluster: promote reconcile %s: %w", si.Instance, err)
				}
				rec = &sessionRec{
					spec: SessionSpec{
						Instance:   si.Instance,
						App:        si.App,
						Adaptivity: si.Adaptivity,
						OwnUtility: si.OwnUtility,
						Phase:      si.Phase,
						Table:      tbl,
					},
					demandW: demand,
				}
				c.put(rec)
			}
			rec.machine = m.id
			rec.spec.Phase = si.Phase
		}
	}
	orphans := 0
	for _, rec := range c.ledger {
		if rec.machine == "" {
			orphans++
			continue
		}
		c.admitted[rec.machine] += rec.demandW
	}
	f.coord = c
	f.coordKilled = false
	f.redistributeCaps()
	f.standby = standby{}
	f.stats.Failovers++
	f.journal(journalRec{Tick: f.tick, Ev: "failover", N: recovered, Orphans: orphans})
	f.emit(telemetry.Event{Kind: telemetry.EvClusterFailover, Vals: [4]float64{float64(recovered), float64(orphans)}})
	return nil
}

// View renders the point-in-time fleet snapshot check.CheckFleet grades:
// coordinator belief for alive/caps/admitted, machine-manager ground truth
// for ownership and standing power.
func (f *Fleet) View() check.FleetView {
	v := check.FleetView{BudgetW: f.cfg.FleetBudgetW}
	for _, m := range f.machines {
		fm := check.FleetMachine{ID: m.id}
		if f.coord != nil {
			fm.Alive = !f.coord.dead[m.id]
			fm.CapW = f.coord.caps[m.id]
			fm.AdmittedW = f.coord.admitted[m.id]
		}
		if m.mgr != nil {
			for _, si := range m.mgr.Sessions() {
				fm.Sessions = append(fm.Sessions, si.Instance)
			}
			if !m.killed {
				fm.StandingPowerW = m.mgr.StandingPowerW()
			}
		}
		v.Machines = append(v.Machines, fm)
	}
	return v
}

// Unowned lists, sorted, every session the fleet knows about but no
// machine currently serves — queued arrivals, in-flight migrations and
// orphans awaiting re-home. Chaos suites bound how long any instance stays
// on this list.
func (f *Fleet) Unowned() []string {
	var out []string
	for i := range f.arrivals {
		out = append(out, f.arrivals[i].Instance)
	}
	if f.coord != nil {
		for _, rec := range f.coord.ledger {
			if rec.machine == "" || rec.inflight {
				out = append(out, rec.spec.Instance)
			}
		}
	}
	sort.Strings(out)
	return out
}

// grade refreshes the health surface and, with Verify set, fails the tick
// on a fleet-invariant violation.
func (f *Fleet) grade() error {
	h := Health{MachinesTotal: len(f.machines), Failovers: f.stats.Failovers, Coordinator: "primary"}
	if f.coord != nil && f.coord.promoted {
		h.Coordinator = "promoted-standby"
	}
	for _, m := range f.machines {
		if f.coord != nil && !f.coord.dead[m.id] {
			h.MachinesAlive++
		}
	}
	h.Unplaced = len(f.Unowned())
	if f.coord != nil {
		h.InFlight = len(f.coord.inflight)
		h.Unplaced -= h.InFlight // in-flight sessions are in motion, not stuck
	}
	var verr error
	if f.cfg.Verify {
		verr = check.CheckFleet(f.View())
	}
	switch {
	case verr != nil:
		h.Status, h.InvariantErr = "failed", verr.Error()
	case f.coord == nil:
		h.Status = "failed"
	case h.MachinesAlive < h.MachinesTotal || h.Unplaced > 0:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	f.health = h
	return verr
}

func (f *Fleet) emit(ev telemetry.Event) {
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(ev)
	}
}

// JournalErr reports the first cluster-journal write error (nil when the
// journal is healthy or disabled).
func (f *Fleet) JournalErr() error { return f.jerr }
