package harpsim

import (
	"bytes"
	"testing"

	"github.com/harp-rm/harp/internal/core"
)

// TestChurnSameSeedByteIdenticalJournals pins the determinism contract at the
// system level: two runs with the same seed — coalescing, incremental solves
// and sharded solving all enabled — must emit byte-identical decision
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
			Sharded:       true,
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
// VerifyEvery set, sampled epochs run through check.CheckAllocations and the
// run fails on any violation.
func TestChurnOracleVerification(t *testing.T) {
	res, err := RunChurn(ChurnOptions{
		Sessions:      40,
		Ticks:         15,
		EventsPerTick: 3,
		Seed:          11,
		Coalesce:      core.CoalescePolicy{Enabled: true},
		Sharded:       true,
		Incremental:   true,
		VerifyEvery:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified == 0 {
		t.Fatal("no epochs were oracle-verified")
	}
	if res.SolveSources["sharded"] == 0 {
		t.Fatalf("no sharded epochs recorded: %v", res.SolveSources)
	}
}
