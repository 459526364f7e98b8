package harpsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/experiments"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// paperJournalDigests are the SHA-256 digests of the decision journal of
// each Fig. 6 multi-application scenario at seed 1, under the paper-eval
// options ("harp": online exploration, powersave, warm-started solves) and
// under offline DSE tables ("harp-offline"). Like churnJournalDigests they
// pin "decisions unchanged": a change that moves a decision on purpose
// updates them and says why.
var paperJournalDigests = map[string]string{
	"is.C+lu.C/harp":                        "5d6c9130475c757081c441485047e7b1b604280aa99bb561f1eeed2ed250e69e",
	"is.C+lu.C/harp-offline":                "18d4edc1558eae533cf8c5f9ef1144a3d516a55013246ddccaca043ab0a04458",
	"cg.C+mg.C/harp":                        "c75f20d962fdf3da6c9f430ab505f999bb53df100a7242293b5d6bc0389838b1",
	"cg.C+mg.C/harp-offline":                "e16cb9ab0c73e5547577ef24f4914f29985f9d97390c081877defe60154a02d8",
	"ep.C+ft.C/harp":                        "bb665aa525ad0c4b898d0f29738276e4f8f357511ca8d5fdd1a86b9bd6045f62",
	"ep.C+ft.C/harp-offline":                "ad3b872bf90730dee0be6c5e4f9c364b4b8a67103256eae5d41f1f1953ecf6ef",
	"bt.C+sp.C/harp":                        "4be88e6584f66e50030b1d43f0f73eef180e16780298e107c987a4ae0434a202",
	"bt.C+sp.C/harp-offline":                "b622c99184c3e9952d06be264e84c32c3b10cc4db11ec819d8740d22aaed93aa",
	"binpack+pi/harp":                       "f38a5d8ba78cc409cee5273e892d4872853bab5c48fece01590e4831d3759feb",
	"binpack+pi/harp-offline":               "a8312b905c6326bbef89d78c805762092b7faa6a82f99c82ac07b2f19c87493e",
	"vgg+alexnet/harp":                      "1ca1ed7260d0585cdb7ff2369fa6008d4a9ad1ca30e1989655d78867e93fb8c6",
	"vgg+alexnet/harp-offline":              "625d1bb275c270802e7e15a2627affb30faba17f6e9233203f42f0d3de348945",
	"ft.C+mg.C+cg.C/harp":                   "3b292cbc28221f3175cc9fd0861520c7d16edb1c3b34162e139e869faf1dd0d9",
	"ft.C+mg.C+cg.C/harp-offline":           "ea82d40abd54a796aaaa46b56fac0bb0f9271abee0df84155aee5e1a8957c5b8",
	"ep.C+lu.C+ua.C/harp":                   "574e15fc11bdb193c71ca99400e2ff493d6b11243c50b8b1ae52260c1f4dec86",
	"ep.C+lu.C+ua.C/harp-offline":           "c55c0c591eebd3be4b553b44b69ff6c27b16a756cfc364f3ea3e30cc40352350",
	"bt.C+cg.C+ft.C+is.C/harp":              "cd78303668adc7544c1581892bfeef7731540a0aa80555447189729948a0f234",
	"bt.C+cg.C+ft.C+is.C/harp-offline":      "43cb28efae065895c675302992d7e2eeb3f8d0cc170a18823952052742eda5a2",
	"ep.C+cg.C+ft.C+mg.C+sp.C/harp":         "e5dc90a8933eff34dfd478a99f6cefa55eb0a59df53cf25ac8c7c05f930e3472",
	"ep.C+cg.C+ft.C+mg.C+sp.C/harp-offline": "bb72948bebe8b8cbf3887026a7e5ca6cd20d1409edf750f278bda9c1c5e0b824",
}

// TestPaperJournalDigests replays the ten Fig. 6 multi-application
// scenarios and compares their journal digests. amd64 only, as
// TestChurnJournalDigests.
func TestPaperJournalDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("journal digests are pinned on amd64, not %s", runtime.GOARCH)
	}
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
			key := fmt.Sprintf("%s/%s", sc.Name, policy)
			t.Run(key, func(t *testing.T) {
				opts := harpsim.Options{Policy: policy, Seed: 1, Governor: sim.GovernorPowersave}
				if policy == harpsim.PolicyHARP {
					opts.AllocWarmStart = true
				} else {
					opts.OfflineTables = harpsim.OfflineDSETables(plat, sc.Apps)
				}
				h := sha256.New()
				opts.Journal = telemetry.NewJournal(h)
				if _, err := harpsim.Run(sc, opts); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != paperJournalDigests[key] {
					t.Errorf("journal digest %s, pinned %s", got, paperJournalDigests[key])
				}
			})
		}
	}
}

// clusterJournalDigests are the SHA-256 digests of RunCluster's fleet
// journal followed by every machine's decision journal in machine order,
// for 4 machines, 200 sessions and 200 ticks with one machine kill and one
// coordinator kill, keyed by seed.
var clusterJournalDigests = map[string]string{
	"seed1":  "7e4e9271abf1c5340e628dd8b580a644e3da3673bc0f1e655f58ef7ffb2a62b2",
	"seed7":  "16f1734d78f029d417abcc28ae3126237d4f58eab6ee37e22cf042a60990541d",
	"seed42": "a3b311875fe0ca8c1e9c580d8ba60cbe9966e092fb134003d6b471b9435c442d",
}

// TestClusterJournalDigests replays the pinned fleet runs and compares
// their journal digests. amd64 only, as TestChurnJournalDigests.
func TestClusterJournalDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("journal digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, seed := range []int64{1, 7, 42} {
		key := fmt.Sprintf("seed%d", seed)
		t.Run(key, func(t *testing.T) {
			fleet := sha256.New()
			var machines []hash.Hash
			if _, err := harpsim.RunCluster(harpsim.ClusterOptions{
				Machines: 4, Sessions: 200, Ticks: 200, Seed: seed,
				FleetBudgetW: 3.2 * 200,
				Plan: &faultsim.Plan{Seed: seed, Faults: []faultsim.Fault{
					{At: harpsim.ClusterTick(50), Target: fmt.Sprintf("m%d", seed%4), Kind: faultsim.KindMachineKill},
					{At: harpsim.ClusterTick(120), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
				}},
				Journal: fleet,
				MachineJournal: func(string) io.Writer {
					h := sha256.New()
					machines = append(machines, h)
					return h
				},
			}); err != nil {
				t.Fatal(err)
			}
			for _, h := range machines {
				fleet.Write(h.Sum(nil))
			}
			if got := hex.EncodeToString(fleet.Sum(nil)); got != clusterJournalDigests[key] {
				t.Errorf("journal digest %s, pinned %s", got, clusterJournalDigests[key])
			}
		})
	}
}
