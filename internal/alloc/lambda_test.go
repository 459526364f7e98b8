package alloc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// TestGroupedLambdaMatchesScan is the differential gate for the λ loop's
// grouping of states by table: on the same states, the grouped loop must
// leave every application on the candidate the per-application scan leaves
// it on, with the same final λ bits and the same iteration count. Instances
// cover churn-shaped populations (sixteen shared tables under 100 to 10 000
// sessions), Raptor Lake tables shared by pointer and copied by content —
// equal content in split groups — check.Gen instances with repeated tables,
// warm λ₀, residual capacity with a kind at zero, and a deadline that cuts
// the loop at iteration k.
func TestGroupedLambdaMatchesScan(t *testing.T) {
	type instance struct {
		name     string
		plat     *platform.Platform
		inputs   []alloc.AppInput
		capacity []int
		c        alloc.LambdaCase
	}
	full := func(p *platform.Platform) []int {
		c := make([]int, len(p.Kinds))
		for k, kind := range p.Kinds {
			c[k] = kind.Count
		}
		return c
	}
	var cases []instance

	churn := harpsim.ChurnPlatform(4, 8)
	tables := churnTables(churn, 16)
	for _, n := range []int{100, 1000, 10000} {
		inputs := make([]alloc.AppInput, n)
		for i := range inputs {
			inputs[i] = alloc.AppInput{ID: fmt.Sprintf("s%05d", i), Table: tables[(i*7)%len(tables)]}
		}
		cases = append(cases,
			instance{fmt.Sprintf("churn/%d", n), churn, inputs, full(churn), alloc.LambdaCase{}},
			instance{fmt.Sprintf("churn/%d/cut3", n), churn, inputs, full(churn), alloc.LambdaCase{CutAt: 3}},
		)
	}

	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	intel := platform.RaptorLake()
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		distinct := profileInputs(t, r, intel, workload.IntelApps(), 3)
		inputs := make([]alloc.AppInput, 3+r.Intn(8))
		for i := range inputs {
			tbl := distinct[r.Intn(len(distinct))].Table
			if seed%2 == 0 {
				tbl = tbl.Clone() // equal content, another pointer
			}
			inputs[i] = alloc.AppInput{ID: fmt.Sprintf("app%d", i), Table: tbl}
		}
		c := alloc.LambdaCase{CutAt: int(seed % 4 * 5)}
		if seed%5 == 0 {
			c.Warm = randomLambda(r, len(intel.Kinds))
		}
		cases = append(cases, instance{fmt.Sprintf("raptorlake/seed=%d", seed), intel, inputs, full(intel), c})
	}

	for seed := int64(1); seed <= 10*seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, inputs := check.Gen(seed, check.GenConfig{})
		for i, n := 0, len(inputs); i < n; i++ { // repeat some tables
			if r.Intn(2) == 0 {
				inputs = append(inputs, alloc.AppInput{ID: fmt.Sprintf("dup%d", i), Table: inputs[i].Table})
			}
		}
		r.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
		capacity := full(p)
		if seed%3 == 0 { // residual, one kind fully pinned away
			for k := range capacity {
				capacity[k] = r.Intn(capacity[k] + 1)
			}
			capacity[r.Intn(len(capacity))] = 0
		}
		c := alloc.LambdaCase{CutAt: int(seed % 7)}
		if seed%5 == 0 {
			c.Warm = randomLambda(r, len(p.Kinds))
		}
		cases = append(cases, instance{fmt.Sprintf("gen/seed=%d", seed), p, inputs, capacity, c})
	}

	cut := 0
	for _, tc := range cases {
		a, err := alloc.New(tc.plat)
		if err != nil {
			t.Fatal(err)
		}
		got, want, err := a.LambdaAgainstScan(tc.inputs, tc.capacity, tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: capacity %v, %d apps, %+v: grouped loop ran %d iterations to λ %x choosing %v; the scan %d to λ %x choosing %v",
				tc.name, tc.capacity, len(tc.inputs), tc.c, got.Iters, got.Lambda, got.Chosen, want.Iters, want.Lambda, want.Chosen)
		}
		if tc.c.CutAt > 0 && want.Iters == tc.c.CutAt {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no instance was cut by the deadline probe: the cut cases tested nothing")
	}
}

// churnTables builds n two-point tables in the shape of harpsim's churn
// tables: each table's points lie on one kind, kinds taken in turn.
func churnTables(p *platform.Platform, n int) []*opoint.Table {
	tables := make([]*opoint.Table, n)
	for i := range tables {
		tbl := &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: p.Name}
		for cores := 1; cores <= 2; cores++ {
			rv := platform.NewResourceVector(p)
			rv.Counts[i%len(p.Kinds)][0] = cores
			tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: (4 + 0.25*float64(i%7)) * float64(cores) * 0.8, Power: 1.5 * float64(cores), Measured: true})
		}
		tables[i] = tbl
	}
	return tables
}

// randomLambda is a warm λ₀ of nk non-negative prices.
func randomLambda(r *rand.Rand, nk int) []float64 {
	l := make([]float64, nk)
	for k := range l {
		l[k] = r.Float64() * 2
	}
	return l
}
