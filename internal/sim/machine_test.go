package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// spreadSched is a minimal deterministic scheduler for tests: round-robin
// over the allowed hardware threads.
type spreadSched struct{}

func (spreadSched) Name() string { return "spread" }

func (spreadSched) TracksUtil() bool { return false }

func (spreadSched) Place(topo []HWInfo, procs []ProcView) map[ProcID][]HWThread {
	out := make(map[ProcID][]HWThread, len(procs))
	for _, p := range procs {
		allowed := p.Affinity
		if allowed == nil {
			allowed = make([]HWThread, len(topo))
			for i := range topo {
				allowed[i] = topo[i].ID
			}
		}
		asg := make([]HWThread, p.Threads)
		for t := 0; t < p.Threads; t++ {
			asg[t] = allowed[t%len(allowed)]
		}
		out[p.ID] = asg
	}
	return out
}

func newTestMachine(t *testing.T, opts ...Option) *Machine {
	t.Helper()
	m, err := New(platform.RaptorLake(), spreadSched{}, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func computeProfile(work float64) *workload.Profile {
	return &workload.Profile{
		Name:        "compute",
		Adaptivity:  workload.Scalable,
		WorkGI:      work,
		MemBound:    0.05,
		SMTFriendly: 0.8,
		DynamicLoad: true,
		Wait:        workload.Block,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(platform.RaptorLake(), nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(platform.RaptorLake(), spreadSched{}, WithGovernor(Governor(99))); err == nil {
		t.Error("bogus governor accepted")
	}
	bad := platform.RaptorLake()
	bad.Name = ""
	if _, err := New(bad, spreadSched{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestTopologyShape(t *testing.T) {
	m := newTestMachine(t)
	topo := m.Topology()
	if len(topo) != 32 {
		t.Fatalf("topology size = %d, want 32", len(topo))
	}
	// First two hw threads are siblings on P core 0.
	if topo[0].Core != 0 || topo[1].Core != 0 || topo[2].Core != 1 {
		t.Errorf("P core siblings wrong: %+v %+v", topo[0], topo[1])
	}
	// hw 16 is the first E thread (8 P cores × 2).
	if topo[16].Kind != 1 || topo[16].Core != 8 {
		t.Errorf("first E thread = %+v, want kind 1 core 8", topo[16])
	}
	eThreads := 0
	for _, info := range topo {
		if info.Kind == 1 {
			eThreads++
		}
	}
	if eThreads != 16 {
		t.Errorf("E hw threads = %d, want 16", eThreads)
	}
}

func TestSingleAppRunsToCompletion(t *testing.T) {
	m := newTestMachine(t)
	proc, err := m.Start(computeProfile(200), "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	var exited *Proc
	m.OnProcExit(func(p *Proc) { exited = p })
	if err := m.RunUntilIdle(time.Minute); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if !proc.Done() {
		t.Fatal("process not done")
	}
	if exited != proc {
		t.Error("exit callback not fired with the process")
	}
	if proc.FinishedAt() <= 0 {
		t.Errorf("FinishedAt = %v", proc.FinishedAt())
	}
	c := proc.Counters()
	if math.Abs(c.UsefulGI-200) > 1e-6 {
		t.Errorf("useful work = %g, want 200", c.UsefulGI)
	}
	if c.ExecutedGI < c.UsefulGI-1e-6 {
		t.Errorf("executed %g below useful %g", c.ExecutedGI, c.UsefulGI)
	}
}

// The simulated makespan must match the closed-form steady-state projection
// (within the governor's frequency lag and quantum rounding).
func TestMakespanMatchesClosedForm(t *testing.T) {
	plat := platform.RaptorLake()
	prof := computeProfile(500)
	want := workload.EvaluateVector(plat, prof, plat.Capacity()).TimeSec

	m, err := New(plat, spreadSched{}, WithGovernor(GovernorPerformance))
	if err != nil {
		t.Fatal(err)
	}
	proc, err := m.Start(prof, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	got := proc.FinishedAt().Seconds()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("makespan = %.3fs, closed form %.3fs (>5%% off)", got, want)
	}
}

func TestEnergyAccountingConserves(t *testing.T) {
	m := newTestMachine(t)
	p1, err := m.Start(computeProfile(100), "a")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Start(computeProfile(100), "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	e := m.Energy()
	for _, v := range append([]float64{e.PackageJ, e.UncoreJ}, e.ByKindJ...) {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("invalid energy reading %+v", e)
		}
	}
	var kinds float64
	for _, v := range e.ByKindJ {
		kinds += v
	}
	if math.Abs(e.PackageJ-(kinds+e.UncoreJ)) > 1e-6 {
		t.Errorf("package %.3f ≠ kinds %.3f + uncore %.3f", e.PackageJ, kinds, e.UncoreJ)
	}
	dyn := p1.Counters().DynEnergyJ + p2.Counters().DynEnergyJ
	if dyn <= 0 || dyn > e.PackageJ {
		t.Errorf("per-proc dynamic energy %.3f outside (0, package %.3f]", dyn, e.PackageJ)
	}
}

func TestAffinityRestrictsPlacementAndSlowsApp(t *testing.T) {
	mFree := newTestMachine(t)
	free, err := mFree.Start(computeProfile(300), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := mFree.RunUntilIdle(time.Minute); err != nil {
		t.Fatal(err)
	}

	mPinned := newTestMachine(t)
	pinned, err := mPinned.Start(computeProfile(300), "")
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to two E-core hardware threads.
	if err := mPinned.SetAffinity(pinned.ID(), []HWThread{16, 17}); err != nil {
		t.Fatal(err)
	}
	if err := mPinned.RunUntilIdle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if pinned.FinishedAt() <= 2*free.FinishedAt() {
		t.Errorf("pinned %v not much slower than free %v", pinned.FinishedAt(), free.FinishedAt())
	}
	// CPU time must be exclusively on the E kind.
	c := pinned.Counters()
	if c.CPUTimeByKind[0] != 0 {
		t.Errorf("pinned app consumed %.3fs on P cores", c.CPUTimeByKind[0])
	}
	if c.CPUTimeByKind[1] <= 0 {
		t.Error("pinned app consumed no E-core time")
	}
}

func TestSetAffinityValidation(t *testing.T) {
	m := newTestMachine(t)
	p, err := m.Start(computeProfile(10), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetAffinity(p.ID(), []HWThread{}); err == nil {
		t.Error("empty affinity accepted")
	}
	if err := m.SetAffinity(p.ID(), []HWThread{99}); err == nil {
		t.Error("out-of-range hw thread accepted")
	}
	if err := m.SetAffinity(ProcID(999), []HWThread{0}); err == nil {
		t.Error("unknown process accepted")
	}
	if err := m.SetAffinity(p.ID(), nil); err != nil {
		t.Errorf("clearing affinity: %v", err)
	}
}

func TestSetThreadsRules(t *testing.T) {
	m := newTestMachine(t)
	scalable, err := m.Start(computeProfile(10), "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreads(scalable.ID(), 4); err != nil {
		t.Fatalf("SetThreads: %v", err)
	}
	if got := scalable.view().Threads; got != 4 {
		t.Errorf("threads = %d, want 4", got)
	}
	if err := m.SetThreads(scalable.ID(), 0); err == nil {
		t.Error("zero threads accepted")
	}

	static := computeProfile(10)
	static.Name = "static"
	static.Adaptivity = workload.Static
	static.DefaultThreads = 3
	sp, err := m.Start(static, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetThreads(sp.ID(), 2); err == nil {
		t.Error("rescaling a static app accepted")
	}
}

func TestMigrationStallPausesProgress(t *testing.T) {
	m := newTestMachine(t)
	m.migrationStall = 100 * time.Millisecond
	p, err := m.Start(computeProfile(1e6), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := p.Counters().UsefulGI
	if before <= 0 {
		t.Fatal("no progress before stall")
	}
	var pThreads []HWThread
	for _, info := range m.Topology() {
		if info.Kind == 0 {
			pThreads = append(pThreads, info.ID)
		}
	}
	if err := m.SetAffinity(p.ID(), pThreads); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(90 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.Counters().UsefulGI; got != before {
		t.Errorf("progress during stall: %g → %g", before, got)
	}
	if err := m.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.Counters().UsefulGI; got <= before {
		t.Error("no progress after stall expired")
	}
}

func TestTickers(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.Start(computeProfile(1e6), ""); err != nil {
		t.Fatal(err)
	}
	var fired []time.Duration
	cancel := m.Every(50*time.Millisecond, func(now time.Duration) {
		fired = append(fired, now)
	})
	if err := m.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("ticker fired %d times in 200ms at 50ms period, want 4 (%v)", len(fired), fired)
	}
	cancel()
	if err := m.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Errorf("ticker fired after cancel: %v", fired)
	}
}

func TestRunUntilIdleHorizon(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.Start(computeProfile(1e9), ""); err != nil {
		t.Fatal(err)
	}
	err := m.RunUntilIdle(100 * time.Millisecond)
	if !errors.Is(err, ErrMachineIdle) {
		t.Fatalf("err = %v, want ErrMachineIdle", err)
	}
}

func TestDuplicateInstanceRejected(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.Start(computeProfile(10), "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(computeProfile(10), "x"); err == nil {
		t.Error("duplicate instance accepted")
	}
}

func TestRateTax(t *testing.T) {
	run := func(tax float64) time.Duration {
		m := newTestMachine(t)
		p, err := m.Start(computeProfile(300), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRateTax(p.ID(), tax); err != nil {
			t.Fatal(err)
		}
		if err := m.RunUntilIdle(time.Minute); err != nil {
			t.Fatal(err)
		}
		return p.FinishedAt()
	}
	plain := run(0)
	taxed := run(0.10)
	ratio := float64(taxed) / float64(plain)
	if ratio < 1.05 || ratio > 1.25 {
		t.Errorf("10%% tax changed makespan by %.3f×, want ≈1.11×", ratio)
	}

	m := newTestMachine(t)
	p, err := m.Start(computeProfile(10), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRateTax(p.ID(), 1.5); err == nil {
		t.Error("tax ≥ 1 accepted")
	}
}

func TestGovernorIdleEnergy(t *testing.T) {
	run := func(g Governor) float64 {
		m, err := New(platform.RaptorLake(), spreadSched{}, WithGovernor(g))
		if err != nil {
			t.Fatal(err)
		}
		// One small app on two threads: most cores idle.
		prof := computeProfile(50)
		prof.DefaultThreads = 2
		if _, err := m.Start(prof, ""); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return m.Energy().PackageJ
	}
	perf := run(GovernorPerformance)
	save := run(GovernorPowersave)
	if perf <= save {
		t.Errorf("performance governor energy %.1f J not above powersave %.1f J", perf, save)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, float64) {
		m := newTestMachine(t)
		var last *Proc
		for _, name := range []string{"a", "b", "c"} {
			p, err := m.Start(computeProfile(150), name)
			if err != nil {
				t.Fatal(err)
			}
			last = p
		}
		if err := m.RunUntilIdle(time.Minute); err != nil {
			t.Fatal(err)
		}
		return last.FinishedAt(), m.Energy().PackageJ
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("non-deterministic: (%v, %g) vs (%v, %g)", t1, e1, t2, e2)
	}
}

func TestGovernorString(t *testing.T) {
	tests := []struct {
		give Governor
		want string
	}{
		{GovernorPowersave, "powersave"},
		{GovernorSchedutil, "schedutil"},
		{GovernorPerformance, "performance"},
		{Governor(0), "governor(?)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d: got %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

// Two memory-bound apps must share the platform's bandwidth: each runs
// slower together than alone.
func TestBandwidthArbitrationAcrossApps(t *testing.T) {
	memProfile := func(name string) *workload.Profile {
		return &workload.Profile{
			Name:           name,
			Adaptivity:     workload.Scalable,
			WorkGI:         1e6,
			MemBound:       0.8,
			DynamicLoad:    true,
			Wait:           workload.Block,
			DefaultThreads: 16,
		}
	}
	alone := newTestMachine(t)
	pa, err := alone.Start(memProfile("solo"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := alone.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	soloRate := pa.Counters().UsefulGI

	shared := newTestMachine(t)
	p1, err := shared.Start(memProfile("m1"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.Start(memProfile("m2"), ""); err != nil {
		t.Fatal(err)
	}
	if err := shared.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	sharedRate := p1.Counters().UsefulGI

	if sharedRate >= soloRate*0.85 {
		t.Errorf("memory-bound app kept %.0f%% of its solo rate next to a BW-hungry peer; expected contention",
			100*sharedRate/soloRate)
	}
	// And the bandwidth is shared, not destroyed: together they outrun one.
	if sharedRate < soloRate*0.3 {
		t.Errorf("contention collapse: shared rate %.1f vs solo %.1f", sharedRate, soloRate)
	}
}
