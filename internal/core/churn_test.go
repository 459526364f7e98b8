package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// countingAllocator counts solves so coalescing tests can assert how many
// epochs a burst actually cost.
type countingAllocator struct {
	real   Allocator
	solves int
	fail   bool
}

func (c *countingAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	if c.fail {
		return nil, alloc.Stats{}, errors.New("injected solver failure")
	}
	c.solves++
	return c.real.AllocateWithStats(apps)
}

func churnTestPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	p := &platform.Platform{
		Name:            "churn-core-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
		Kinds: []platform.CoreKind{
			{Name: "P", Count: 4, SMT: 1, MaxFreqGHz: 3, MinFreqGHz: 0.5, IPC: 2, ActiveWatts: 2, IdleWatts: 0.2, SleepWatts: 0.02},
			{Name: "E", Count: 4, SMT: 1, MaxFreqGHz: 2, MinFreqGHz: 0.5, IPC: 1, ActiveWatts: 1, IdleWatts: 0.1, SleepWatts: 0.01},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func churnTestTable(t *testing.T, p *platform.Platform, app string, kind, cores int) *opoint.Table {
	t.Helper()
	tbl := &opoint.Table{App: app, Platform: p.Name}
	rv := platform.NewResourceVector(p)
	rv.Counts[kind][0] = cores
	tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: 5 + float64(cores), Power: float64(cores), Measured: true})
	return tbl
}

func newCoalescingManager(t *testing.T, pol CoalescePolicy) (*Manager, *countingAllocator) {
	t.Helper()
	p := churnTestPlatform(t)
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingAllocator{real: real}
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          counting,
		DisableExploration: true,
		Coalesce:           pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, counting
}

// TestRegistrationStormCoalescesToOneEpoch pins the tentpole property: a
// registration storm under coalescing costs exactly one solve, flushed by
// the adaptation tick, instead of one solve per event.
func TestRegistrationStormCoalescesToOneEpoch(t *testing.T) {
	m, counting := newCoalescingManager(t, CoalescePolicy{Enabled: true})
	const storm = 100
	for i := 0; i < storm; i++ {
		if err := m.Register(fmt.Sprintf("s%03d", i), "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	if counting.solves != 0 {
		t.Fatalf("storm ran %d inline solves, want 0 (all deferred)", counting.solves)
	}
	pending, events := m.PendingEpoch()
	if !pending || events != storm {
		t.Fatalf("pending=%v events=%d, want pending with %d events", pending, events, storm)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if counting.solves != 1 {
		t.Fatalf("flush ran %d solves, want exactly 1", counting.solves)
	}
	if pending, _ := m.PendingEpoch(); pending {
		t.Fatal("epoch still pending after flush")
	}
	// Every session must have received a decision from the single coalesced
	// solve.
	for _, info := range m.Sessions() {
		if s := m.sessions[info.Instance]; s.last == nil {
			t.Fatalf("session %s has no decision after coalesced flush", info.Instance)
		}
	}
}

// TestCoalesceDirtyBoundFlushesInline pins the staleness bound: the pending
// epoch flushes as soon as MaxDirty events accumulate, without waiting for a
// tick.
func TestCoalesceDirtyBoundFlushesInline(t *testing.T) {
	m, counting := newCoalescingManager(t, CoalescePolicy{Enabled: true, MaxDirty: 10})
	for i := 0; i < 25; i++ {
		if err := m.Register(fmt.Sprintf("s%03d", i), "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	// 25 events with a bound of 10 → flushes at events 10 and 20, leaving 5
	// pending.
	if counting.solves != 2 {
		t.Fatalf("dirty bound ran %d solves for 25 events, want 2", counting.solves)
	}
	if pending, events := m.PendingEpoch(); !pending || events != 5 {
		t.Fatalf("pending=%v events=%d, want 5 residual events pending", pending, events)
	}
}

// TestInlineSolveAbsorbsPendingEpoch pins the interaction between coalesced
// and inline epochs: a manual Reallocate (or cadence solve) covers all
// sessions, so the queued epoch is satisfied, not double-solved.
func TestInlineSolveAbsorbsPendingEpoch(t *testing.T) {
	m, counting := newCoalescingManager(t, CoalescePolicy{Enabled: true})
	if err := m.Register("s0", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if counting.solves != 1 {
		t.Fatalf("%d solves, want 1 (inline solve absorbs the pending epoch)", counting.solves)
	}
	if pending, _ := m.PendingEpoch(); pending {
		t.Fatal("pending epoch not absorbed by inline solve")
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if counting.solves != 1 {
		t.Fatalf("tick after absorption ran a solve; total %d, want 1", counting.solves)
	}
}

// TestRegisterRollbackReleasesGauges pins the metric-cardinality leak: a
// failed registration must release the per-instance gauge label series it
// created, or rejected registrations grow the registry forever.
func TestRegisterRollbackReleasesGauges(t *testing.T) {
	p := churnTestPlatform(t)
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingAllocator{real: real}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          counting,
		DisableExploration: true,
		Metrics:            telemetry.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	counting.fail = true
	if err := m.Register("ghost", "app", workload.Scalable, false); err == nil {
		t.Fatal("registration succeeded although the solver failed")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if strings.Contains(buf.String(), `instance="ghost"`) {
		t.Fatal("rolled-back registration leaked per-instance gauge series")
	}
}

// TestRegisterRollbackRestoresContinuityState pins the restart-continuity
// loss: Register consumes m.priorPhase and m.ended before the solve; a
// failed solve must restore both so a successful retry still resumes the
// phase and counts as a reconnect.
func TestRegisterRollbackRestoresContinuityState(t *testing.T) {
	p := churnTestPlatform(t)
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingAllocator{real: real}
	reg := telemetry.NewRegistry()
	mt := telemetry.NewMetrics(reg)
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          counting,
		DisableExploration: true,
		Metrics:            mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate recovered continuity state: the instance deregistered before
	// (ended) and announced a phase before an RM restart (priorPhase).
	m.ended.add("s0")
	m.priorPhase["s0"] = "steady"

	counting.fail = true
	if err := m.Register("s0", "app", workload.Scalable, false); err == nil {
		t.Fatal("registration succeeded although the solver failed")
	}
	if !m.ended.has("s0") {
		t.Fatal("rollback lost m.ended: retry will not count as a reconnect")
	}
	if phase := m.priorPhase["s0"]; phase != "steady" {
		t.Fatalf("rollback lost m.priorPhase: got %q, want %q", phase, "steady")
	}

	counting.fail = false
	if err := m.Register("s0", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if got := m.sessions["s0"].phase; got != "steady" {
		t.Fatalf("retry resumed phase %q, want %q", got, "steady")
	}
	if got := mt.Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects = %d, want 1 (retry resumes the ended instance)", got)
	}
}

// TestDeregisterStormCompactsOrder pins the O(N²) deregistration fix: the
// order slice tombstones in O(1) and compacts, so after a full storm no
// ghost entries remain and re-registration works.
func TestDeregisterStormCompactsOrder(t *testing.T) {
	m, _ := newCoalescingManager(t, CoalescePolicy{})
	const n = 64
	for i := 0; i < n; i++ {
		if err := m.Register(fmt.Sprintf("s%03d", i), "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := m.Deregister(fmt.Sprintf("s%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Sessions()); got != 0 {
		t.Fatalf("%d sessions after full deregistration storm", got)
	}
	if len(m.order) > n {
		t.Fatalf("order grew to %d entries, tombstones not compacted", len(m.order))
	}
	for _, s := range m.order {
		if s != nil && m.sessions[s.instance] != s {
			t.Fatalf("ghost order entry %q survives deregistration", s.instance)
		}
	}
	if err := m.Register("s000", "app", workload.Scalable, false); err != nil {
		t.Fatalf("re-registration after storm: %v", err)
	}
	if s := m.sessions["s000"]; s == nil || m.order[s.slot] != s {
		t.Fatal("order slot out of sync after storm + re-registration")
	}
}

// TestCoalescedEpochTriggerLabels pins journal attribution: one pending
// event keeps its own trigger, a burst is journalled as "coalesced".
func TestCoalescedEpochTriggerLabels(t *testing.T) {
	p := churnTestPlatform(t)
	var jbuf bytes.Buffer
	m, err := NewManager(Config{
		Platform:           p,
		DisableExploration: true,
		Coalesce:           CoalescePolicy{Enabled: true},
		Journal:            telemetry.NewJournal(&jbuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("solo", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"trigger":"register"`) {
		t.Fatalf("single-event epoch lost its trigger; journal: %s", jbuf.String())
	}
	jbuf.Reset()
	for i := 0; i < 3; i++ {
		if err := m.Register(fmt.Sprintf("b%d", i), "app", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"trigger":"coalesced"`) {
		t.Fatalf("burst epoch not labelled coalesced; journal: %s", jbuf.String())
	}
}

// TestShardedManagerConfig pins the Config wiring: ShardedAlloc builds a
// sharded default allocator and the manager solves through it.
func TestShardedManagerConfig(t *testing.T) {
	p := churnTestPlatform(t)
	m, err := NewManager(Config{
		Platform:           p,
		DisableExploration: true,
		ShardedAlloc:       true,
		ShardParallelism:   2,
		AllocIncremental:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two sessions on disjoint kinds → two domains → sharded solve.
	for i, kind := range []int{0, 1} {
		id := fmt.Sprintf("s%d", i)
		if err := m.Register(id, fmt.Sprintf("app%d", i), workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
		if err := m.UploadTable(id, churnTestTable(t, p, fmt.Sprintf("app%d", i), kind, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.LastSolveSource(); got != alloc.SourceSharded {
		t.Fatalf("solve source = %q, want %q", got, alloc.SourceSharded)
	}
	for _, info := range m.Sessions() {
		if s := m.sessions[info.Instance]; s.last == nil || len(s.last.Grants) == 0 {
			t.Fatalf("session %s has no grants from the sharded solve", info.Instance)
		}
	}
}
