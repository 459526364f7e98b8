// Differential tests for the solution cache and warm-start path: over the
// same seeded instance sweep as the solver-vs-oracle suites, every cached and
// warm-started solve is held to the cold solver's answer and to the exact
// oracle. This is the safety net that lets the cache default on: a regression
// that serves a stale or divergent solution fails here on the seed that
// exposes it.
package alloc_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
)

// perturbInputs applies a small deterministic content change to the first
// app's table — the "next epoch" shape the warm-start path exists for:
// mostly the same instance, slightly different numbers.
func perturbInputs(inputs []alloc.AppInput) {
	if len(inputs) == 0 || inputs[0].Table == nil || len(inputs[0].Table.Points) == 0 {
		return
	}
	pt := inputs[0].Table.Points[0]
	pt.Utility *= 1.05
	pt.Power *= 0.97
	inputs[0].Table.Upsert(pt)
}

// TestDifferentialCachedVsCold proves the cache is decision-transparent on
// every seeded instance: the first (miss) solve of a cached allocator is
// byte-identical to a cache-less allocator's solve, the second (hit) solve is
// byte-identical to the first, and the served solution passes the strict
// oracle contract.
func TestDifferentialCachedVsCold(t *testing.T) {
	n := diffSeedCount(t)
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			p, inputs := check.Gen(seed, diffConfig(seed))

			cold, err := alloc.New(p, alloc.WithMethod(alloc.Lagrangian))
			if err != nil {
				t.Fatal(err)
			}
			cached, err := alloc.New(p, alloc.WithMethod(alloc.Lagrangian), alloc.WithCache(4))
			if err != nil {
				t.Fatal(err)
			}

			want, err := cold.Allocate(inputs)
			if err != nil {
				t.Fatalf("cold allocate: %v", err)
			}
			first, st1, err := cached.AllocateWithStats(inputs)
			if err != nil {
				t.Fatalf("cached allocate (miss): %v", err)
			}
			if st1.Source != alloc.SourceCold {
				t.Fatalf("first solve source = %q, want %q", st1.Source, alloc.SourceCold)
			}
			if !reflect.DeepEqual(want, first) {
				t.Fatalf("seed %d: cache-miss solve diverges from cache-less solve\ncold: %+v\nmiss: %+v", seed, want, first)
			}
			second, st2, err := cached.AllocateWithStats(inputs)
			if err != nil {
				t.Fatalf("cached allocate (hit): %v", err)
			}
			if st2.Source != alloc.SourceCached {
				t.Fatalf("second solve source = %q, want %q", st2.Source, alloc.SourceCached)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("seed %d: cache-hit solve diverges from the solve that filled it", seed)
			}
			if err := check.CheckAgainstOracle(p, inputs, second, true); err != nil {
				t.Fatalf("seed %d: cached solution fails oracle: %v\nrepro: %s", seed, err,
					check.ReproLine("./internal/alloc/", "TestDifferentialCachedVsCold", seed))
			}
		})
	}
}

// TestDifferentialWarmCacheHit pins what the cache promises when warm starts
// are on, as in harpd and paper-eval: a hit returns the selection of the
// solve that filled it — the point and co-allocation flag per application —
// placed against the standing placement. It does not promise a fresh
// solve's answer: a warm solve of A after B starts from B's λ and may pick a
// different, equally valid selection from the one cached for A. Nor does it
// promise the filling solve's cores. The sweep solves A, then a perturbed B,
// then A again: the third solve must be a hit with the first solve's
// selection, valid, within the strict oracle contract, and its co-allocated
// applications whose choice B shares keep B's grants except for the moves
// the placement invariant makes.
func TestDifferentialWarmCacheHit(t *testing.T) {
	n := diffSeedCount(t)
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			p, a := check.Gen(seed, diffConfig(seed))
			_, b := check.Gen(seed, diffConfig(seed))
			perturbInputs(b)

			warm, err := alloc.New(p, alloc.WithMethod(alloc.Lagrangian), alloc.WithWarmStart(true), alloc.WithCache(4))
			if err != nil {
				t.Fatal(err)
			}
			filled, err := warm.Allocate(a)
			if err != nil {
				t.Fatalf("solve A: %v", err)
			}
			filled = cloneAllocs(filled)
			solvedB, err := warm.Allocate(b)
			if err != nil {
				t.Fatalf("solve B: %v", err)
			}
			solvedB = cloneAllocs(solvedB)
			hit, st, err := warm.AllocateWithStats(a)
			if err != nil {
				t.Fatalf("re-solve A: %v", err)
			}
			if st.Source != alloc.SourceCached {
				t.Fatalf("re-solve of A: source = %q, want %q", st.Source, alloc.SourceCached)
			}
			if got, want := selectionOf(hit), selectionOf(filled); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: cache hit's selection diverges from the solve that filled it\nfilled: %+v\nhit:    %+v", seed, want, got)
			}
			if err := check.CheckAllocations(p, a, hit); err != nil {
				t.Fatalf("seed %d: cache hit: %v", seed, err)
			}
			if err := check.CheckPlacement(p, hit); err != nil {
				t.Fatalf("seed %d: cache hit: %v", seed, err)
			}
			moved := 0
			for i, al := range hit {
				w := solvedB[i]
				if w.ID != al.ID || !al.CoAllocated || !w.CoAllocated || !w.Point.Vector.Equal(al.Point.Vector) {
					continue
				}
				for gi := range al.Grants {
					if al.Grants[gi] != w.Grants[gi] {
						moved++
					}
				}
			}
			if bound := changedCores(p, solvedB, hit); moved > bound {
				t.Fatalf("seed %d: %d co-allocated grants moved against solve B, more than the %d cores that changed", seed, moved, bound)
			}
			if err := check.CheckAgainstOracle(p, a, hit, true); err != nil {
				t.Fatalf("seed %d: cached solution fails oracle: %v\nrepro: %s", seed, err,
					check.ReproLine("./internal/alloc/", "TestDifferentialWarmCacheHit", seed))
			}
		})
	}
}

// selection is what the solution cache memoises for one application.
type selection struct {
	ID          string
	Point       opoint.OperatingPoint
	CoAllocated bool
}

func selectionOf(allocs []alloc.Allocation) []selection {
	out := make([]selection, len(allocs))
	for i, al := range allocs {
		out[i] = selection{al.ID, al.Point, al.CoAllocated}
	}
	return out
}

// TestDifferentialWarmVsOracle holds every warm-started solve to the same
// strict oracle contract as a cold solve, on both an identical re-solve and a
// perturbed "next epoch" instance, and proves the point of warm starting:
// summed across the sweep, warm solves reach the λ fixpoint in strictly fewer
// subgradient iterations than cold solves of the same instances.
func TestDifferentialWarmVsOracle(t *testing.T) {
	n := diffSeedCount(t)
	var coldIters, warmIters atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(0); seed < n; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				// Two content-identical copies of the instance, perturbed in
				// lockstep, so the cold and warm allocators see the same inputs.
				pc, coldIn := check.Gen(seed, diffConfig(seed))
				pw, warmIn := check.Gen(seed, diffConfig(seed))

				cold, err := alloc.New(pc, alloc.WithMethod(alloc.Lagrangian))
				if err != nil {
					t.Fatal(err)
				}
				warm, err := alloc.New(pw, alloc.WithMethod(alloc.Lagrangian), alloc.WithWarmStart(true))
				if err != nil {
					t.Fatal(err)
				}

				// Epoch 1: no previous λ exists, so the warm allocator's first
				// solve must be byte-identical to the cold allocator's.
				wantEpoch1, _, err := cold.AllocateWithStats(coldIn)
				if err != nil {
					t.Fatal(err)
				}
				gotEpoch1, st1, err := warm.AllocateWithStats(warmIn)
				if err != nil {
					t.Fatal(err)
				}
				if st1.Source != alloc.SourceCold {
					t.Fatalf("first solve source = %q, want %q", st1.Source, alloc.SourceCold)
				}
				if !reflect.DeepEqual(wantEpoch1, gotEpoch1) {
					t.Fatalf("seed %d: warm allocator's first (cold) solve diverges", seed)
				}

				// Epoch 2: perturb both copies identically and re-solve. The warm
				// solve may legitimately pick a different — equally valid —
				// solution, so it is held to the oracle, not to the cold answer.
				perturbInputs(coldIn)
				perturbInputs(warmIn)
				_, stCold, err := cold.AllocateWithStats(coldIn)
				if err != nil {
					t.Fatal(err)
				}
				warmAllocs, stWarm, err := warm.AllocateWithStats(warmIn)
				if err != nil {
					t.Fatal(err)
				}
				if stWarm.Source != alloc.SourceWarm {
					t.Fatalf("perturbed solve source = %q, want %q", stWarm.Source, alloc.SourceWarm)
				}
				if err := check.CheckAgainstOracle(pw, warmIn, warmAllocs, true); err != nil {
					t.Fatalf("seed %d: warm solution fails oracle: %v\nrepro: %s", seed, err,
						check.ReproLine("./internal/alloc/", "TestDifferentialWarmVsOracle", seed))
				}
				coldIters.Add(int64(stCold.LambdaIters))
				warmIters.Add(int64(stWarm.LambdaIters))
			})
		}
	})
	c, w := coldIters.Load(), warmIters.Load()
	t.Logf("λ iterations across %d perturbed instances: cold %d, warm %d (%.1f%% saved)",
		n, c, w, 100*(1-float64(w)/float64(c)))
	if w >= c {
		t.Fatalf("warm starts did not save iterations: cold %d, warm %d", c, w)
	}
}
