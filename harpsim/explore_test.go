package harpsim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/telemetry"
)

// TestExhaustedBoundDoesNotLivelock pins the end of the exploration
// livelock: an exploring session whose bound holds no unmeasured
// configuration used to force a full reallocation on every 50 ms sample,
// which restarted every other session's in-flight measurement, so the
// scenarios below ran 650–1 700 exploration epochs where an application
// needs about 20. The count of exploration-trigger epochs in the decision
// journal is a host-cost proxy that needs no wall clock. The options are
// the paper-eval workload's: HARP online, powersave, warm starts.
func TestExhaustedBoundDoesNotLivelock(t *testing.T) {
	const maxExplorationEpochs = 200
	cases := []struct {
		apps string
		seed int64
	}{
		{"ft.C+mg.C+cg.C", 1},
		{"bt.C+cg.C+ft.C+is.C", 5},
		{"ep.C+lu.C+ua.C", 7},
		{"ep.C+cg.C+ft.C+mg.C+sp.C", 1},
	}
	for _, tc := range cases {
		t.Run(tc.apps, func(t *testing.T) {
			var jbuf bytes.Buffer
			mustRun(t, intelScenario(t, strings.Split(tc.apps, "+")...), Options{
				Policy:         PolicyHARP,
				Seed:           tc.seed,
				Governor:       sim.GovernorPowersave,
				AllocWarmStart: true,
				Journal:        telemetry.NewJournal(&jbuf),
			})
			recs, err := telemetry.ReadJournal(bytes.NewReader(jbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var n int
			for _, r := range recs {
				if r.Trigger == "exploration" {
					n++
				}
			}
			if n > maxExplorationEpochs {
				t.Errorf("seed %d: %d exploration epochs, want ≤ %d", tc.seed, n, maxExplorationEpochs)
			}
			t.Logf("seed %d: %d exploration epochs of %d", tc.seed, n, len(recs))
		})
	}
}
