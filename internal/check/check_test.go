package check

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/platform"
)

// bruteForce enumerates every assignment to find the true optimum — the
// oracle's oracle. Only usable on tiny instances.
func bruteForce(inst Instance) Solution {
	n := len(inst.Apps)
	best := Solution{Cost: math.Inf(1)}
	chosen := make([]int, n)
	var walk func(d int, cost float64, remaining []int)
	walk = func(d int, cost float64, remaining []int) {
		if d == n {
			if cost < best.Cost {
				best.Feasible = true
				best.Cost = cost
				best.Chosen = append([]int(nil), chosen...)
			}
			return
		}
		for ci, c := range inst.Apps[d].Cands {
			fits := true
			for k, dem := range c.Demand {
				if dem > remaining[k] {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			next := append([]int(nil), remaining...)
			for k, dem := range c.Demand {
				next[k] -= dem
			}
			chosen[d] = ci
			walk(d+1, cost+c.Cost, next)
		}
	}
	walk(0, 0, append([]int(nil), inst.Capacity...))
	if !best.Feasible {
		return Solution{}
	}
	return best
}

func TestOracleMatchesBruteForce(t *testing.T) {
	cfg := GenConfig{MaxApps: 3, MaxPoints: 4, Degenerate: true}
	for seed := int64(0); seed < 400; seed++ {
		p, inputs := Gen(seed, cfg)
		inst := FromInputs(p, inputs)
		got, err := inst.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForce(inst)
		if got.Feasible != want.Feasible {
			t.Fatalf("seed %d: oracle feasible=%v, brute force says %v\n%s",
				seed, got.Feasible, want.Feasible, FormatInstance(p, inputs))
		}
		if !want.Feasible {
			continue
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("seed %d: oracle cost %g, brute force %g\n%s",
				seed, got.Cost, want.Cost, FormatInstance(p, inputs))
		}
		if math.Abs(inst.CostOf(got.Chosen)-got.Cost) > 1e-9 {
			t.Fatalf("seed %d: oracle's Chosen prices at %g, claims %g",
				seed, inst.CostOf(got.Chosen), got.Cost)
		}
		// The oracle's own assignment must fit the capacity.
		used := make([]int, len(inst.Capacity))
		for i, ci := range got.Chosen {
			for k, dem := range inst.Apps[i].Cands[ci].Demand {
				used[k] += dem
			}
		}
		for k := range used {
			if used[k] > inst.Capacity[k] {
				t.Fatalf("seed %d: oracle assignment overflows kind %d: %d > %d",
					seed, k, used[k], inst.Capacity[k])
			}
		}
	}
}

func TestOracleInfeasible(t *testing.T) {
	inst := Instance{
		Capacity: []int{1},
		Apps: []App{
			{ID: "a", Cands: []Cand{{Cost: 1, Demand: []int{2}}}},
		},
	}
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatalf("demand 2 on capacity 1 reported feasible: %+v", sol)
	}
}

func TestOracleEmpty(t *testing.T) {
	sol, err := Instance{Capacity: []int{4}}.Solve()
	if err != nil || !sol.Feasible || sol.Cost != 0 {
		t.Fatalf("empty instance: sol=%+v err=%v", sol, err)
	}
	sol, err = Instance{Capacity: []int{4}, Apps: []App{{ID: "a"}}}.Solve()
	if err != nil || sol.Feasible {
		t.Fatalf("app with no candidates must be infeasible: sol=%+v err=%v", sol, err)
	}
}

func TestOraclePrefersCheaperSplit(t *testing.T) {
	// Two apps, each with an expensive 1-core point and a cheap 2-core point,
	// on 3 cores: the optimum mixes one of each.
	inst := Instance{
		Capacity: []int{3},
		Apps: []App{
			{ID: "a", Cands: []Cand{{Cost: 10, Demand: []int{1}}, {Cost: 1, Demand: []int{2}}}},
			{ID: "b", Cands: []Cand{{Cost: 10, Demand: []int{1}}, {Cost: 1, Demand: []int{2}}}},
		},
	}
	sol, err := inst.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || math.Abs(sol.Cost-11) > 1e-9 {
		t.Fatalf("want cost 11 (one cheap + one expensive), got %+v", sol)
	}
}

func TestGenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p1, in1 := Gen(seed, GenConfig{Degenerate: true})
		p2, in2 := Gen(seed, GenConfig{Degenerate: true})
		if FormatInstance(p1, in1) != FormatInstance(p2, in2) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

func TestGenPlatformsValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p, inputs := Gen(seed, GenConfig{Degenerate: true})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: invalid platform: %v", seed, err)
		}
		if len(inputs) == 0 {
			t.Fatalf("seed %d: no applications", seed)
		}
		for _, in := range inputs {
			if !hasUsablePoint(in.Table) {
				t.Fatalf("seed %d: %s has no usable operating point", seed, in.ID)
			}
		}
		inst := FromInputs(p, inputs)
		if inst.Size() <= 0 {
			t.Fatalf("seed %d: empty instance", seed)
		}
	}
}

func TestShrinkReducesToCore(t *testing.T) {
	p, inputs := Gen(7, GenConfig{})
	// Plant a recognisable poison point in the middle of the mix.
	poison := inputs[0].Table.Points[0]
	poison.Utility = 1234.5
	inputs[0].Table.Upsert(poison)
	fail := func(_ *platform.Platform, in []alloc.AppInput) error {
		for _, ai := range in {
			for _, op := range ai.Table.Points {
				if op.Utility == 1234.5 {
					return fmt.Errorf("poison present")
				}
			}
		}
		return nil
	}
	shrunk, err := Shrink(p, inputs, fail)
	if err == nil {
		t.Fatal("shrink lost the failure")
	}
	if len(shrunk) != 1 || len(shrunk[0].Table.Points) != 1 {
		t.Fatalf("want 1 app × 1 point, got %d apps (first table %d points)",
			len(shrunk), len(shrunk[0].Table.Points))
	}
	if shrunk[0].Table.Points[0].Utility != 1234.5 {
		t.Fatalf("shrink kept the wrong point: %+v", shrunk[0].Table.Points[0])
	}
	// The originals must be untouched.
	if len(inputs[0].Table.Points) == 1 {
		t.Fatal("shrink mutated the caller's inputs")
	}
}

func TestShrinkNoFailure(t *testing.T) {
	p, inputs := Gen(3, GenConfig{})
	out, err := Shrink(p, inputs, func(*platform.Platform, []alloc.AppInput) error { return nil })
	if err != nil {
		t.Fatalf("healthy instance shrank to an error: %v", err)
	}
	if len(out) != len(inputs) {
		t.Fatalf("healthy instance was reduced: %d → %d apps", len(inputs), len(out))
	}
}

func TestReproLine(t *testing.T) {
	line := ReproLine("./internal/alloc", "TestDifferentialLagrangianVsOracle", 42)
	for _, want := range []string{"go test", "-race", "seed=42", "./internal/alloc", "TestDifferentialLagrangianVsOracle"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro line %q missing %q", line, want)
		}
	}
}

func TestWriteArtifact(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("HARP_CHECK_ARTIFACTS", dir)
	path := WriteArtifact("ce.txt", []byte("counterexample"))
	if path != filepath.Join(dir, "ce.txt") {
		t.Fatalf("unexpected artifact path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "counterexample" {
		t.Fatalf("artifact read back %q, %v", data, err)
	}
	t.Setenv("HARP_CHECK_ARTIFACTS", "")
	if got := WriteArtifact("ce.txt", nil); got != "" {
		t.Fatalf("artifact written with no dir configured: %q", got)
	}
}

func TestCheckTimelineIsolation(t *testing.T) {
	p, _ := Gen(1, GenConfig{})
	n := p.NumCores()
	if n < 1 {
		t.Fatal("generated platform has no cores")
	}
	good := []TimelineEntry{
		{AtSec: 1, Instance: "a", Cores: []int{0}},
		{AtSec: 2, Instance: "a", Cores: nil}, // released
		{AtSec: 2, Instance: "b", Cores: []int{0}},
	}
	if err := CheckTimelineIsolation(p, good); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	doubleGrant := []TimelineEntry{
		{AtSec: 1, Instance: "a", Cores: []int{0}},
		{AtSec: 2, Instance: "b", Cores: []int{0}},
	}
	if err := CheckTimelineIsolation(p, doubleGrant); err == nil {
		t.Fatal("double grant not detected")
	}
	coAllocated := []TimelineEntry{
		{AtSec: 1, Instance: "a", Cores: []int{0}},
		{AtSec: 2, Instance: "b", Cores: []int{0}, CoAllocated: true},
	}
	if err := CheckTimelineIsolation(p, coAllocated); err != nil {
		t.Fatalf("co-allocated sharing rejected: %v", err)
	}
	ghost := []TimelineEntry{{AtSec: 1, Instance: "a", Cores: []int{n}}}
	if err := CheckTimelineIsolation(p, ghost); err == nil {
		t.Fatal("nonexistent core not detected")
	}
	// A mid-batch conflict resolved within the same timestamp is legal.
	handoff := []TimelineEntry{
		{AtSec: 1, Instance: "a", Cores: []int{0}},
		{AtSec: 3, Instance: "b", Cores: []int{0}},
		{AtSec: 3, Instance: "a", Cores: nil},
	}
	if err := CheckTimelineIsolation(p, handoff); err != nil {
		t.Fatalf("same-batch handoff rejected: %v", err)
	}
}

func TestCheckPlacement(t *testing.T) {
	// Two kinds of two cores: cores 0-1 and 2-3.
	p := &platform.Platform{Name: "two-by-two", Kinds: []platform.CoreKind{
		{Name: "big", Count: 2, SMT: 1, MaxFreqGHz: 2, MinFreqGHz: 1, IPC: 1, ActiveWatts: 1, IdleWatts: 0.1},
		{Name: "little", Count: 2, SMT: 1, MaxFreqGHz: 1, MinFreqGHz: 0.5, IPC: 1, ActiveWatts: 0.5, IdleWatts: 0.1},
	}}
	iso := func(id string, cores ...int) alloc.Allocation {
		al := alloc.Allocation{ID: id}
		for _, c := range cores {
			al.Grants = append(al.Grants, alloc.CoreGrant{Core: c, Threads: 1})
		}
		return al
	}
	co := func(id string, cores ...int) alloc.Allocation {
		al := iso(id, cores...)
		al.CoAllocated = true
		return al
	}
	for _, tc := range []struct {
		name   string
		allocs []alloc.Allocation
		ok     bool
	}{
		{"shares the idle core first", []alloc.Allocation{iso("a", 0), co("b", 1), co("c", 1)}, true},
		{"shares an isolated core once none is idle", []alloc.Allocation{iso("a", 0), co("b", 1), co("c", 0)}, true},
		{"another kind's idle core does not count", []alloc.Allocation{iso("a", 0), co("b", 1), co("c", 0), iso("d", 2)}, true},
		{"shares an isolated core while one is idle", []alloc.Allocation{iso("a", 0), co("b", 0)}, false},
		{"idle little core under a shared little core", []alloc.Allocation{iso("a", 2), co("b", 2, 0)}, false},
		{"grant off the platform", []alloc.Allocation{co("a", 4)}, false},
	} {
		err := CheckPlacement(p, tc.allocs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckPlacement = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
