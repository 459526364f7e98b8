package harpsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
)

// TestChurnSameSeedByteIdenticalJournals pins the determinism contract at the
// system level: two runs with the same seed — coalescing and incremental
// solves both enabled — must emit byte-identical decision
// journals, because every random choice flows from the seed and all
// timestamps come from the virtual clock.
func TestChurnSameSeedByteIdenticalJournals(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		res, err := RunChurn(ChurnOptions{
			Sessions:      40,
			Ticks:         20,
			EventsPerTick: 3,
			Seed:          42,
			Coalesce:      core.CoalescePolicy{Enabled: true},
			Incremental:   true,
			Journal:       &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Epochs == 0 {
			t.Fatal("churn run solved no epochs")
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("empty journal")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed journals differ: %d vs %d bytes", len(first), len(second))
	}
}

// TestChurnDifferentSeedsDiverge is the determinism test's control: a
// different seed must produce a different event stream and journal.
func TestChurnDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) []byte {
		var buf bytes.Buffer
		if _, err := RunChurn(ChurnOptions{
			Sessions:      20,
			Ticks:         10,
			EventsPerTick: 3,
			Seed:          seed,
			Coalesce:      core.CoalescePolicy{Enabled: true},
			Journal:       &buf,
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(run(1), run(2)) {
		t.Fatal("different seeds produced identical journals")
	}
}

// TestChurnCoalescingCollapsesEpochs pins the tentpole claim: with coalescing
// on, solve count tracks ticks, not events — the registration ramp plus every
// per-tick burst each collapse into one epoch.
func TestChurnCoalescingCollapsesEpochs(t *testing.T) {
	res, err := RunChurn(ChurnOptions{
		Sessions:      60,
		Ticks:         25,
		EventsPerTick: 4,
		Seed:          7,
		Coalesce:      core.CoalescePolicy{Enabled: true},
		Incremental:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One epoch per tick with pending events, plus ramp flush and final
	// Flush; never more than ticks+2, and at least four events per epoch.
	if res.Epochs*4 > res.Events {
		t.Fatalf("coalescing ineffective: %d epochs for %d events", res.Epochs, res.Events)
	}
	if res.Epochs > 25+2 {
		t.Fatalf("%d epochs for 25 ticks: more than one solve per tick", res.Epochs)
	}
	if res.FinalSessions == 0 || res.PeakSessions < 60 {
		t.Fatalf("population collapsed: peak %d final %d", res.PeakSessions, res.FinalSessions)
	}
}

// TestChurnSolvePerEventBaseline pins the uncoalesced control: with the zero
// CoalescePolicy every mutating event solves inline, so epochs track events
// one-for-one.
func TestChurnSolvePerEventBaseline(t *testing.T) {
	res, err := RunChurn(ChurnOptions{
		Sessions:      15,
		Ticks:         5,
		EventsPerTick: 2,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < res.Events {
		t.Fatalf("solve-per-event baseline: %d epochs < %d events", res.Epochs, res.Events)
	}
}

// TestChurnOracleVerification pins the differential-verification hook: with
// VerifyEvery set, sampled epochs run through check.CheckAllocations and
// check.CheckPlacement, and the run fails on any violation.
func TestChurnOracleVerification(t *testing.T) {
	res, err := RunChurn(ChurnOptions{
		Sessions:      40,
		Ticks:         15,
		EventsPerTick: 3,
		Seed:          11,
		Coalesce:      core.CoalescePolicy{Enabled: true},
		Incremental:   true,
		VerifyEvery:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified == 0 {
		t.Fatal("no epochs were oracle-verified")
	}
	if res.SolveSources[alloc.SourceIncremental] == 0 {
		t.Fatalf("no incremental epochs recorded: %v", res.SolveSources)
	}
}

// churnJournalDigests are the SHA-256 digests of RunChurn's decision journal
// for 300 sessions × 200 ticks at four events per tick, incremental solving
// on, keyed by seed and epoch mode. They pin "decisions unchanged" across
// refactors of the epoch pipeline and the solver: a change that moves a
// decision on purpose updates them and says why.
var churnJournalDigests = map[string]string{
	"seed1/coalesced":  "3d372633fe5b1df3811636ca9c69658efe2dacdc4fd9bb6c8b694837c932da42",
	"seed1/inline":     "7542bb442ac3cb1d6ffd0bb8ecd482084a9fd82a9f39673950d6de023d557591",
	"seed7/coalesced":  "347ffa7a6919ab1e256a66095573b6d986c005dc19b8ee99baca054f2466365f",
	"seed7/inline":     "98304f75e98922838e8c0b8c195ab63198e7c3052ec95a33b86fbe8465921857",
	"seed42/coalesced": "58a89c19eb0ca0d9ea617856941bf864b6ca115b7981ada991f9901cc67e4d44",
	"seed42/inline":    "8a915c430f20e207a624bd464b4dcb51dc2f4ef005a4e53715de20c2ccd7d89c",
}

// TestChurnJournalDigests replays the pinned RunChurn configurations and
// compares their journal digests. Floating-point results may differ in the
// last bit on other architectures (fused multiply-add), so it runs on amd64
// only.
func TestChurnJournalDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("journal digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, seed := range []int64{1, 7, 42} {
		for _, coalesce := range []bool{true, false} {
			mode := "inline"
			if coalesce {
				mode = "coalesced"
			}
			key := fmt.Sprintf("seed%d/%s", seed, mode)
			t.Run(key, func(t *testing.T) {
				h := sha256.New()
				if _, err := RunChurn(ChurnOptions{
					Sessions:      300,
					Ticks:         200,
					EventsPerTick: 4,
					Seed:          seed,
					Coalesce:      core.CoalescePolicy{Enabled: coalesce},
					Incremental:   true,
					Journal:       h,
				}); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != churnJournalDigests[key] {
					t.Errorf("journal digest %s, pinned %s", got, churnJournalDigests[key])
				}
			})
		}
	}
}
