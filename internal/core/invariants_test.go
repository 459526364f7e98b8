package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// invariantHarness drives one Manager through random operations while
// mirroring every pushed decision into a timeline the internal/check suite
// can replay: each operation is one batch (one AtSec), deregistrations and
// reaps append explicit core-clearing entries.
type invariantHarness struct {
	t    *testing.T
	m    *Manager
	jbuf *bytes.Buffer

	op       int
	timeline []check.TimelineEntry
	pushed   []telemetry.EpochOutput
	live     []string // registered instances, registration order
}

func newInvariantHarness(t *testing.T, p *platform.Platform, tables map[string]*opoint.Table) *invariantHarness {
	t.Helper()
	h := &invariantHarness{t: t, jbuf: &bytes.Buffer{}}
	m, err := NewManager(Config{
		Platform:           p,
		OfflineTables:      tables,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(h.jbuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.OnDecision(func(d Decision) {
		cores := make([]int, 0, len(d.Grants))
		for _, g := range d.Grants {
			cores = append(cores, g.Core)
		}
		h.timeline = append(h.timeline, check.TimelineEntry{
			AtSec:       float64(h.op),
			Instance:    d.Instance,
			Cores:       cores,
			CoAllocated: d.CoAllocated,
		})
		h.pushed = append(h.pushed, telemetry.EpochOutput{
			Instance:    d.Instance,
			Seq:         d.Seq,
			Vector:      d.Vector.Key(),
			Threads:     d.Threads,
			Cores:       len(d.Grants),
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			PredPowerW:  d.PredictedPowerW,
		})
	})
	h.m = m
	return h
}

// clear records that an instance's standing allocation ended without a
// pushed decision (deregister/reap remove the session silently).
func (h *invariantHarness) clear(instance string) {
	h.timeline = append(h.timeline, check.TimelineEntry{AtSec: float64(h.op), Instance: instance})
}

func (h *invariantHarness) drop(instance string) {
	for i, id := range h.live {
		if id == instance {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return
		}
	}
}

// TestManagerInvariantsRandomOps drives random operation sequences —
// register, deregister, reap, quarantine, readmit, phase change, measurement
// bursts, manual reallocation — against a Manager and asserts the reusable
// invariant suite over the resulting decision stream and journal: spatial
// isolation and capacity conservation at every step (including across
// quarantine and reap), a well-formed journal, and journal outputs exactly
// equal to the pushed-decision stream.
func TestManagerInvariantsRandomOps(t *testing.T) {
	// The small Odroid platform keeps each solve cheap while its 4+4 cores
	// put real co-allocation pressure on a six-session fuzz.
	p := platform.OdroidXU3()
	profiles := workload.IntelApps()
	tables := make(map[string]*opoint.Table, len(profiles))
	var apps []string
	for _, prof := range profiles {
		tables[prof.Name] = offlineTable(p, prof)
		apps = append(apps, prof.Name)
	}
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			h := newInvariantHarness(t, p, tables)
			rng := rand.New(rand.NewSource(seed))
			nextID := 0
			for h.op = 0; h.op < 80; h.op++ {
				switch roll := rng.Intn(10); {
				// Cap the session count: solve time grows with it and the
				// invariants do not need ever-larger instances.
				case (roll < 3 && len(h.live) < 6) || len(h.live) == 0: // register
					app := apps[rng.Intn(len(apps))]
					id := fmt.Sprintf("%s-%d", app, nextID)
					nextID++
					if err := h.m.Register(id, app, workload.Scalable, false); err != nil {
						t.Fatalf("op %d: Register(%s): %v", h.op, id, err)
					}
					h.live = append(h.live, id)
				case roll < 4: // deregister
					id := h.live[rng.Intn(len(h.live))]
					if err := h.m.Deregister(id); err != nil {
						t.Fatalf("op %d: Deregister(%s): %v", h.op, id, err)
					}
					h.drop(id)
					h.clear(id)
				case roll < 5: // reap
					id := h.live[rng.Intn(len(h.live))]
					if err := h.m.Reap(id); err != nil {
						t.Fatalf("op %d: Reap(%s): %v", h.op, id, err)
					}
					h.drop(id)
					h.clear(id)
				case roll < 7: // liveness transition
					id := h.live[rng.Intn(len(h.live))]
					states := []Liveness{LivenessLive, LivenessSuspect, LivenessQuarantined}
					if err := h.m.SetLiveness(id, states[rng.Intn(len(states))], "fuzz"); err != nil {
						t.Fatalf("op %d: SetLiveness(%s): %v", h.op, id, err)
					}
				case roll < 8: // phase change
					id := h.live[rng.Intn(len(h.live))]
					if err := h.m.PhaseChange(id, fmt.Sprintf("phase-%d", h.op)); err != nil {
						t.Fatalf("op %d: PhaseChange(%s): %v", h.op, id, err)
					}
				case roll < 9: // measurement burst (may trip the cadence)
					id := h.live[rng.Intn(len(h.live))]
					for i := 0; i < 30; i++ {
						if err := h.m.Measure(id, 1+rng.Float64(), 1+rng.Float64()); err != nil {
							t.Fatalf("op %d: Measure(%s): %v", h.op, id, err)
						}
					}
				default:
					h.m.reallocate("manual")
				}
				if err := check.CheckTimelineIsolation(p, h.timeline); err != nil {
					t.Fatalf("op %d: %v", h.op, err)
				}
			}
			records, err := telemetry.ReadJournal(bytes.NewReader(h.jbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := check.CheckJournal(records); err != nil {
				t.Error(err)
			}
			if err := check.CheckJournalMatchesPushed(records, h.pushed); err != nil {
				t.Error(err)
			}
			for _, rec := range records {
				if rec.Error != "" {
					t.Errorf("epoch %d recorded an allocation error: %s", rec.Epoch, rec.Error)
				}
			}
		})
	}
}

// TestManagerSameSeedDeterministic runs the random-op sequence twice with the
// same seed and requires byte-identical journals — the determinism invariant
// at the Manager layer.
func TestManagerSameSeedDeterministic(t *testing.T) {
	p := platform.OdroidXU3()
	profiles := workload.IntelApps()
	tables := make(map[string]*opoint.Table, len(profiles))
	var apps []string
	for _, prof := range profiles {
		tables[prof.Name] = offlineTable(p, prof)
		apps = append(apps, prof.Name)
	}
	run := func() []byte {
		h := newInvariantHarness(t, p, tables)
		rng := rand.New(rand.NewSource(42))
		nextID := 0
		for h.op = 0; h.op < 40; h.op++ {
			switch roll := rng.Intn(6); {
			case (roll < 2 && len(h.live) < 6) || len(h.live) == 0:
				app := apps[rng.Intn(len(apps))]
				id := fmt.Sprintf("%s-%d", app, nextID)
				nextID++
				if err := h.m.Register(id, app, workload.Scalable, false); err != nil {
					t.Fatal(err)
				}
				h.live = append(h.live, id)
			case roll < 3:
				id := h.live[rng.Intn(len(h.live))]
				if err := h.m.Deregister(id); err != nil {
					t.Fatal(err)
				}
				h.drop(id)
			case roll < 4:
				id := h.live[rng.Intn(len(h.live))]
				if err := h.m.Measure(id, 1+rng.Float64(), 1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			default:
				h.m.reallocate("manual")
			}
		}
		return h.jbuf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different journals")
	}
}
