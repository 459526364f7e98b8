package sched

import (
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

func testProfile() *workload.Profile {
	return &workload.Profile{
		Name:        "test-app",
		Adaptivity:  workload.Scalable,
		WorkGI:      100,
		MemBound:    0.2,
		SMTFriendly: 0.5,
		DynamicLoad: true,
		Wait:        workload.Block,
	}
}

func intelTopo(t *testing.T) []sim.HWInfo {
	t.Helper()
	m, err := sim.New(platform.RaptorLake(), CFS{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Topology()
}

func odroidTopo(t *testing.T) []sim.HWInfo {
	t.Helper()
	m, err := sim.New(platform.OdroidXU3(), EAS{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Topology()
}

func kindCounts(topo []sim.HWInfo, asg []sim.HWThread) map[platform.KindID]int {
	out := make(map[platform.KindID]int)
	for _, hw := range asg {
		out[topo[hw].Kind]++
	}
	return out
}

func distinctCores(topo []sim.HWInfo, asg []sim.HWThread) int {
	cores := make(map[int]bool)
	for _, hw := range asg {
		cores[topo[hw].Core] = true
	}
	return len(cores)
}

func TestCFSSpreadsAcrossCoresBeforeSMT(t *testing.T) {
	topo := intelTopo(t)
	procs := []sim.ProcView{{ID: 1, Threads: 8}}
	asg := CFS{}.Place(topo, procs)[1]
	if len(asg) != 8 {
		t.Fatalf("placed %d threads, want 8", len(asg))
	}
	if got := distinctCores(topo, asg); got != 8 {
		t.Errorf("threads on %d distinct cores, want 8 (spread before SMT)", got)
	}
	// With ITMT-style priorities, the 8 threads land on the 8 P-cores.
	if got := kindCounts(topo, asg)[0]; got != 8 {
		t.Errorf("%d threads on P cores, want 8", got)
	}
}

func TestCFSFullMachineOneThreadPerHW(t *testing.T) {
	topo := intelTopo(t)
	procs := []sim.ProcView{{ID: 1, Threads: 32}}
	asg := CFS{}.Place(topo, procs)[1]
	seen := make(map[sim.HWThread]int)
	for _, hw := range asg {
		seen[hw]++
	}
	if len(seen) != 32 {
		t.Fatalf("32 threads on %d distinct hw threads, want 32", len(seen))
	}
	for hw, n := range seen {
		if n != 1 {
			t.Errorf("hw %d has %d threads", hw, n)
		}
	}
}

func TestCFSRespectsAffinity(t *testing.T) {
	topo := intelTopo(t)
	aff := []sim.HWThread{16, 17, 18, 19} // four E threads
	procs := []sim.ProcView{{ID: 1, Threads: 8, Affinity: aff}}
	asg := CFS{}.Place(topo, procs)[1]
	if len(asg) != 8 {
		t.Fatalf("placed %d, want 8", len(asg))
	}
	allowed := map[sim.HWThread]bool{16: true, 17: true, 18: true, 19: true}
	for _, hw := range asg {
		if !allowed[hw] {
			t.Errorf("thread placed outside affinity: %d", hw)
		}
	}
}

func TestCFSBalancesMultipleApps(t *testing.T) {
	topo := intelTopo(t)
	procs := []sim.ProcView{
		{ID: 1, Threads: 32},
		{ID: 2, Threads: 32},
	}
	placement := CFS{}.Place(topo, procs)
	load := make(map[sim.HWThread]int)
	for _, asg := range placement {
		for _, hw := range asg {
			load[hw]++
		}
	}
	for hw, n := range load {
		if n != 2 {
			t.Errorf("hw %d load = %d, want 2 (even time-sharing)", hw, n)
		}
	}
}

func TestEASPlacesLowUtilOnLittle(t *testing.T) {
	topo := odroidTopo(t)
	procs := []sim.ProcView{
		{ID: 1, Threads: 2, AvgThreadUtil: 0.2},
		{ID: 2, Threads: 2, AvgThreadUtil: 0.95},
	}
	placement := EAS{}.Place(topo, procs)
	low := kindCounts(topo, placement[1])
	high := kindCounts(topo, placement[2])
	if low[1] != 2 {
		t.Errorf("low-util threads on LITTLE = %d, want 2 (got %v)", low[1], low)
	}
	if high[0] != 2 {
		t.Errorf("high-util threads on big = %d, want 2 (got %v)", high[0], high)
	}
}

func TestEASUnprimedDefaultsToBig(t *testing.T) {
	topo := odroidTopo(t)
	procs := []sim.ProcView{{ID: 1, Threads: 2, AvgThreadUtil: 0}}
	placement := EAS{}.Place(topo, procs)
	if got := kindCounts(topo, placement[1])[0]; got != 2 {
		t.Errorf("unprimed threads on big = %d, want 2", got)
	}
}

func TestITDSteersByMemoryBoundedness(t *testing.T) {
	topo := intelTopo(t)
	plat := platform.RaptorLake()
	itd := ITD{Platform: plat}
	procs := []sim.ProcView{
		{ID: 1, Threads: 8, MemBound: 0.05},
		{ID: 2, Threads: 8, MemBound: 0.9},
	}
	placement := itd.Place(topo, procs)
	comp := kindCounts(topo, placement[1])
	mem := kindCounts(topo, placement[2])
	if comp[0] < 6 {
		t.Errorf("compute app P threads = %d, want ≥ 6 (%v)", comp[0], comp)
	}
	if mem[1] < 6 {
		t.Errorf("memory-bound app E threads = %d, want ≥ 6 (%v)", mem[1], mem)
	}
}

func TestITDSingleAppFullMachineLikeCFS(t *testing.T) {
	topo := intelTopo(t)
	itd := ITD{Platform: platform.RaptorLake()}
	procs := []sim.ProcView{{ID: 1, Threads: 32, MemBound: 0.05}}
	asg := itd.Place(topo, procs)[1]
	seen := make(map[sim.HWThread]bool)
	for _, hw := range asg {
		seen[hw] = true
	}
	// A single 32-thread app must still use the whole machine, not crowd P.
	if len(seen) != 32 {
		t.Errorf("single app uses %d hw threads, want 32", len(seen))
	}
}

func TestITDWithoutPlatformIsNeutral(t *testing.T) {
	topo := intelTopo(t)
	procs := []sim.ProcView{{ID: 1, Threads: 4, MemBound: 0.9}}
	asg := ITD{}.Place(topo, procs)[1]
	if len(asg) != 4 {
		t.Fatalf("placed %d, want 4", len(asg))
	}
}

func TestSchedulerNames(t *testing.T) {
	if (CFS{}).Name() != "cfs" || (EAS{}).Name() != "eas" || (ITD{}).Name() != "itd" {
		t.Error("unexpected scheduler names")
	}
}

// End-to-end: the schedulers drive a real machine without violating its
// placement contract.
func TestSchedulersDriveMachine(t *testing.T) {
	plat := platform.RaptorLake()
	scheds := []sim.Scheduler{CFS{}, EAS{}, ITD{Platform: plat}}
	for _, s := range scheds {
		t.Run(s.Name(), func(t *testing.T) {
			m, err := sim.New(plat, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b"} {
				if _, err := m.Start(testProfile(), name); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.RunUntilIdle(5 * time.Minute); err != nil {
				t.Fatalf("RunUntilIdle: %v", err)
			}
		})
	}
}
