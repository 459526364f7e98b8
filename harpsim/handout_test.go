package harpsim_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/experiments"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

// tableDigest hashes everything a reader of a table sees — app, platform,
// and per point its values and vector counts — without the table's own
// memoised hash, which an in-place write would leave stale.
func tableDigest(t *opoint.Table) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %q %d;", t.App, t.Platform, len(t.Points))
	for _, p := range t.Points {
		fmt.Fprintf(h, "%x %x %t %d %v;", math.Float64bits(p.Utility), math.Float64bits(p.Power), p.Measured, p.Samples, p.Vector.Counts)
	}
	return h.Sum64()
}

// watchedVector is a handed-out vector and its key when first seen.
type watchedVector struct {
	rv  platform.ResourceVector
	key string
}

// handoutWatcher wraps a solver and remembers every table handed to it and
// every vector it chose or a decision carried, each as first seen.
type handoutWatcher struct {
	inner   core.Allocator
	tables  map[*opoint.Table]uint64
	vectors map[*[]int]watchedVector // keyed by the vector's row array
}

func newHandoutWatcher(inner core.Allocator) *handoutWatcher {
	return &handoutWatcher{inner: inner, tables: map[*opoint.Table]uint64{}, vectors: map[*[]int]watchedVector{}}
}

func (w *handoutWatcher) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	for _, in := range apps {
		if _, seen := w.tables[in.Table]; in.Table != nil && !seen {
			w.tables[in.Table] = tableDigest(in.Table)
		}
	}
	allocs, stats, err := w.inner.AllocateWithStats(apps)
	for _, al := range allocs {
		w.vector(al.Point.Vector) // what a pushed decision shares
	}
	return allocs, stats, err
}

func (w *handoutWatcher) vector(rv platform.ResourceVector) {
	if len(rv.Counts) == 0 {
		return
	}
	if _, seen := w.vectors[&rv.Counts[0]]; !seen {
		w.vectors[&rv.Counts[0]] = watchedVector{rv, rv.Key()}
	}
}

// verify re-hashes every table and re-reads every vector.
func (w *handoutWatcher) verify(t *testing.T) {
	t.Helper()
	if len(w.tables) == 0 || len(w.vectors) == 0 {
		t.Fatalf("watched %d tables and %d vectors, want some of each", len(w.tables), len(w.vectors))
	}
	changed := 0
	for tbl, digest := range w.tables {
		if tableDigest(tbl) != digest {
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("%d of %d handed-out tables changed after the solver saw them", changed, len(w.tables))
	}
	for _, v := range w.vectors {
		if got := v.rv.Key(); got != v.key {
			t.Errorf("a handed-out vector changed from %s to %s", v.key, got)
			break
		}
	}
}

// TestHandedOutTablesNeverChange checks the table rule end to end: no table
// the manager hands its solver, and no vector a solver chose or a decision
// carried, is written afterwards. It runs the ten Fig. 6 scenarios under
// online exploration and under offline tables, and the pinned churn
// configuration inline and coalesced, with a solver wrapper that hashes each
// table the first time it sees it, and compares at the end of each run.
func TestHandedOutTablesNeverChange(t *testing.T) {
	plat := platform.RaptorLake()
	suite := workload.IntelApps()
	for _, apps := range experiments.IntelMultiScenarioNames() {
		sc := harpsim.Scenario{Name: strings.Join(apps, "+"), Platform: plat}
		for _, n := range apps {
			prof, err := workload.ByName(suite, n)
			if err != nil {
				t.Fatal(err)
			}
			sc.Apps = append(sc.Apps, prof)
		}
		for _, policy := range []harpsim.Policy{harpsim.PolicyHARP, harpsim.PolicyHARPOffline} {
			t.Run(fmt.Sprintf("%s/%s", sc.Name, policy), func(t *testing.T) {
				opts := harpsim.Options{Policy: policy, Seed: 1, Governor: sim.GovernorPowersave}
				if policy == harpsim.PolicyHARP {
					opts.AllocWarmStart = true
				} else {
					opts.OfflineTables = harpsim.OfflineDSETables(plat, sc.Apps)
				}
				inner, err := alloc.New(plat, alloc.WithCache(alloc.DefaultCacheSize), alloc.WithWarmStart(opts.AllocWarmStart))
				if err != nil {
					t.Fatal(err)
				}
				w := newHandoutWatcher(inner)
				if err := harpsim.RunObserved(sc, opts, w, func(d core.Decision) { w.vector(d.Vector) }); err != nil {
					t.Fatal(err)
				}
				w.verify(t)
			})
		}
	}
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn/coalesce=%t", coalesce), func(t *testing.T) {
			inner, err := alloc.New(harpsim.ChurnPlatform(4, 8), alloc.WithCache(alloc.DefaultCacheSize), alloc.WithIncremental(true))
			if err != nil {
				t.Fatal(err)
			}
			w := newHandoutWatcher(inner)
			if _, err := harpsim.RunChurnOn(harpsim.ChurnOptions{
				Sessions: 300, Ticks: 200, EventsPerTick: 4, Seed: 1,
				Coalesce: core.CoalescePolicy{Enabled: coalesce}, Incremental: true,
			}, w); err != nil {
				t.Fatal(err)
			}
			w.verify(t)
		})
	}
}
