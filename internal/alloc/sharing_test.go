package alloc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// TestTableSharingIsInvisible holds the solver to the claim that sharing a
// table by pointer changes no decision: a seeded sequence of solves, in
// which sessions arrive, depart and switch tables among a small pool, runs
// once with the pool's tables shared by pointer and once with every input's
// table replaced by its own Clone — equal content, never shared — and every
// allocation and every Stats must be equal. Arrivals and departures shift
// positions, so a solver state flips between building its candidate list
// and sharing another state's. It runs on both solvers, with incremental
// solving on and off.
func TestTableSharingIsInvisible(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	flips, merges := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := check.GenPlatform(r, check.GenConfig{})
		var pool []*opoint.Table
		for _, in := range check.GenInputs(r, p, check.GenConfig{MaxApps: 5, Degenerate: true}) {
			pool = append(pool, in.Table)
		}
		// A fresh application: no usable point, so the fallback candidate.
		fresh := &opoint.Table{App: "fresh", Platform: p.Name}
		rv := platform.NewResourceVector(p)
		rv.Counts[0][0] = 1
		fresh.Upsert(opoint.OperatingPoint{Vector: rv, Utility: 1, Power: 0})
		pool = append(pool, fresh)

		steps := sharingSteps(r, pool, 30)
		for i := 1; i < len(steps); i++ {
			was, now := listOwners(steps[i-1]), listOwners(steps[i])
			for j := range min(len(was), len(now)) {
				if was[j] != now[j] {
					flips++
				}
			}
		}
		for _, method := range []alloc.Method{alloc.Lagrangian, alloc.Greedy} {
			for _, inc := range []bool{false, true} {
				opts := []alloc.Option{alloc.WithMethod(method), alloc.WithIncremental(inc), alloc.WithWarmStart(seed%2 == 0)}
				shared, err := alloc.New(p, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cloned, err := alloc.New(p, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i, inputs := range steps {
					clones := make([]alloc.AppInput, len(inputs))
					for j, in := range inputs {
						clones[j] = alloc.AppInput{ID: in.ID, Table: in.Table.Clone()}
					}
					got, gotStats, err := shared.AllocateWithStats(inputs)
					if err != nil {
						t.Fatalf("seed %d %v incremental=%v step %d: %v", seed, method, inc, i, err)
					}
					want, wantStats, err := cloned.AllocateWithStats(clones)
					if err != nil {
						t.Fatalf("seed %d %v incremental=%v step %d: clones: %v", seed, method, inc, i, err)
					}
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
						t.Fatalf("seed %d %v incremental=%v step %d: shared tables\n%+v %+v\ncloned tables\n%+v %+v",
							seed, method, inc, i, got, gotStats, want, wantStats)
					}
					if gotStats.Source == alloc.SourceIncremental {
						merges++
					}
				}
			}
		}
	}
	if flips == 0 || merges == 0 {
		t.Fatalf("%d positions flipped between building and sharing a list, %d merges: the sequences tested too little", flips, merges)
	}
	t.Logf("%d ownership flips, %d merges", flips, merges)
}

// sharingSteps is a seeded solve sequence of n inputs over sessions whose
// tables come from pool: each step after the first applies one or two
// events — an arrival at a random position, a departure, or a session
// switching to another pool table.
func sharingSteps(r *rand.Rand, pool []*opoint.Table, n int) [][]alloc.AppInput {
	next := 0
	session := func() alloc.AppInput {
		next++
		return alloc.AppInput{ID: fmt.Sprintf("s%d", next), Table: pool[r.Intn(len(pool))]}
	}
	cur := make([]alloc.AppInput, 2+r.Intn(6))
	for i := range cur {
		cur[i] = session()
	}
	steps := [][]alloc.AppInput{slices.Clone(cur)}
	for len(steps) < n {
		for range 1 + r.Intn(2) {
			switch i := r.Intn(len(cur)); r.Intn(3) {
			case 0:
				cur = slices.Insert(cur, r.Intn(len(cur)+1), session())
			case 1:
				if len(cur) > 1 {
					cur = slices.Delete(cur, i, i+1)
				}
			default:
				cur[i].Table = pool[r.Intn(len(pool))]
			}
		}
		steps = append(steps, slices.Clone(cur))
	}
	return steps
}

// listOwners reports, per input position, whether a full solve builds that
// position's candidate list or shares an earlier position's: the first
// position with a given table pointer builds it.
func listOwners(inputs []alloc.AppInput) []bool {
	seen := map[*opoint.Table]bool{}
	owns := make([]bool, len(inputs))
	for i, in := range inputs {
		owns[i] = !seen[in.Table]
		seen[in.Table] = true
	}
	return owns
}
