package alloc_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// TestRescueMatchesScan is the differential gate for rescue's subtree
// skipping: after the production selection and repair, rescue must leave
// every application on the candidate, and with the co-allocation flag, that
// the plain budgeted search leaves it on. Instances cover the Raptor Lake
// and Odroid profile tables (2–10 applications, every point jittered by up
// to ±1 %), sampled tables on small random platforms, and full and residual
// capacities. The test also asserts its own coverage: searches that ran out
// of budget — some after finding a lift — and lifts, since an exact skip
// could otherwise pass on instances that never reach either.
func TestRescueMatchesScan(t *testing.T) {
	type family struct {
		name  string
		plat  *platform.Platform
		suite []*workload.Profile // profile-derived tables when non-nil
	}
	families := []family{
		{"raptorlake", platform.RaptorLake(), workload.IntelApps()},
		{"odroid", platform.OdroidXU3(), workload.OdroidApps()},
		{"random", nil, nil},
	}
	seeds := int64(140)
	if testing.Short() {
		seeds = 40
	}
	var cov alloc.RescueCoverage
	for _, fam := range families {
		for seed := int64(1); seed <= seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			plat := fam.plat
			var inputs []alloc.AppInput
			if plat == nil {
				plat = check.GenPlatform(r, check.GenConfig{MaxKinds: 4, MaxCoresPerKind: 6})
				inputs = sampledInputs(r, plat, 2+r.Intn(8), 120)
			} else {
				inputs = profileInputs(t, r, plat, fam.suite, 2+r.Intn(9))
			}
			capacity := make([]int, len(plat.Kinds))
			residual := seed%3 == 0
			for k, kind := range plat.Kinds {
				capacity[k] = kind.Count
				if residual {
					capacity[k] = r.Intn(kind.Count + 1)
				}
			}
			a, err := alloc.New(plat)
			if err != nil {
				t.Fatal(err)
			}
			got, want, c, err := a.RescueAgainstScan(inputs, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: capacity %v, %d apps: rescue left %v, the reference search %v",
					fam.name, seed, capacity, len(inputs), got, want)
			}
			cov.Add(c)
		}
	}
	t.Logf("reference searches: %+v", cov)
	if testing.Short() {
		return
	}
	if cov.Exhausted < 100 || cov.ExhaustedLifted == 0 || cov.Lifts < 50 {
		t.Fatalf("coverage %+v: want at least 100 budget-exhausted searches, some of them lifting, and 50 lifts", cov)
	}
}
