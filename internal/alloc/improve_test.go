package alloc_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// TestImproveMatchesScan is the differential gate for improve's pairwise
// neighbourhood: its early stops and first-fit partner lookups must take
// exactly the moves of the plain O(apps² × candidates²) scan it replaced, so
// every state ends on the same candidate. Instances cover the two built-in
// platforms, the many-kind churn platform and small random platforms; full
// and residual capacity (incremental re-solves pass what pinned allocations
// leave, which some candidates exceed); the production pipeline's starting
// selection and random feasible starts; and populations large enough to
// co-allocate or to switch the pairwise pass off.
func TestImproveMatchesScan(t *testing.T) {
	type family struct {
		name  string
		plat  *platform.Platform
		suite []*workload.Profile // profile-derived tables when non-nil
	}
	families := []family{
		{"raptorlake", platform.RaptorLake(), workload.IntelApps()},
		{"odroid", platform.OdroidXU3(), workload.OdroidApps()},
		{"churn-4x8", harpsim.ChurnPlatform(4, 8), nil},
		{"random", nil, nil},
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for _, fam := range families {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				plat := fam.plat
				if plat == nil {
					plat = check.GenPlatform(r, check.GenConfig{MaxKinds: 4, MaxCoresPerKind: 6})
				}
				randomStart := seed%2 == 0
				var inputs []alloc.AppInput
				switch {
				case fam.suite != nil && seed%4 != 0:
					inputs = profileInputs(t, r, plat, fam.suite, 2+r.Intn(8))
				case seed%10 == 0:
					// Past pairMoveMaxApps: single moves only.
					inputs = sampledInputs(r, plat, 70, 4)
				default:
					inputs = sampledInputs(r, plat, 2+r.Intn(8), 120)
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
				var rng *rand.Rand
				if randomStart {
					rng = r
				}
				got, want, err := a.ImproveAgainstScan(inputs, capacity, rng)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("capacity %v, %d apps, random start %v: improve chose %v, the reference scan %v",
						capacity, len(inputs), randomStart, got, want)
				}
			})
		}
	}
}

// profileInputs draws n applications of the suite (repeats allowed) with
// full enumerated tables, every point jittered by up to ±1 %, the shape of
// repeated uploads of measured descriptions.
func profileInputs(t *testing.T, r *rand.Rand, plat *platform.Platform, suite []*workload.Profile, n int) []alloc.AppInput {
	t.Helper()
	vectors := platform.EnumerateVectors(plat, 0)
	inputs := make([]alloc.AppInput, n)
	for i := range inputs {
		prof := suite[r.Intn(len(suite))]
		tbl := &opoint.Table{App: prof.Name, Platform: plat.Name}
		for _, rv := range vectors {
			ev := workload.EvaluateVector(plat, prof, rv)
			tbl.Upsert(opoint.OperatingPoint{
				Vector:   rv,
				Utility:  ev.Utility * (1 + (r.Float64()-0.5)*0.02),
				Power:    ev.PowerWatts * (1 + (r.Float64()-0.5)*0.02),
				Measured: true,
			})
		}
		inputs[i] = alloc.AppInput{ID: fmt.Sprintf("%s#%d", prof.Name, i), Table: tbl}
	}
	return inputs
}

// sampledInputs gives n applications up to maxPoints random vectors of the
// platform's configuration space each, with random utility and power; a
// quarter of the points repeat an earlier utility so cost ties occur.
func sampledInputs(r *rand.Rand, plat *platform.Platform, n, maxPoints int) []alloc.AppInput {
	vectors := platform.EnumerateVectors(plat, 0)
	inputs := make([]alloc.AppInput, n)
	for i := range inputs {
		tbl := &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: plat.Name}
		for range 1 + r.Intn(maxPoints) {
			util := 1 + r.Float64()*10
			if m := len(tbl.Points); m > 0 && r.Intn(4) == 0 {
				util = tbl.Points[r.Intn(m)].Utility
			}
			tbl.Upsert(opoint.OperatingPoint{
				Vector:   vectors[r.Intn(len(vectors))],
				Utility:  util,
				Power:    0.5 + r.Float64()*20,
				Measured: true,
			})
		}
		inputs[i] = alloc.AppInput{ID: tbl.App, Table: tbl}
	}
	return inputs
}
