package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/workload"
)

// editChecker wraps an incremental allocator and holds every edit the
// Manager hands it to the one the IDs give: against the input it last
// solved, the survivors must come first in order, the departed positions
// must be Gone, and every survivor whose table pointer changed must be
// Retabled. A returning instance is a departure plus an arrival. fault
// makes the next solve with two or more inputs fail ("error") or return one
// allocation short ("short") after the inner solve took it, so its standing
// placement moves on while the Manager degrades, or panic before it.
type editChecker struct {
	t      *testing.T
	inner  *alloc.Allocator
	prev   []alloc.AppInput // the input the inner allocator last solved
	fault  string
	edits  int
	walked int
}

func (c *editChecker) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	c.walked++
	return c.solve(apps, nil)
}

func (c *editChecker) AllocateEdit(apps []alloc.AppInput, ed *alloc.Edit) ([]alloc.Allocation, alloc.Stats, error) {
	c.edits++
	if err := c.verify(apps, ed); err != nil {
		c.t.Errorf("edit %d %+v: %v", c.edits, *ed, err)
	}
	return c.solve(apps, ed)
}

func (c *editChecker) solve(apps []alloc.AppInput, ed *alloc.Edit) ([]alloc.Allocation, alloc.Stats, error) {
	fault := ""
	if len(apps) >= 2 {
		fault, c.fault = c.fault, ""
	}
	if fault == "panic" {
		panic("injected solver panic")
	}
	allocs, stats, err := c.inner.AllocateEdit(apps, ed)
	if err == nil {
		c.prev = append(c.prev[:0], apps...)
	}
	switch {
	case fault == "error":
		return nil, alloc.Stats{}, errors.New("injected solver failure")
	case fault == "short" && err == nil:
		return allocs[:len(allocs)-1], stats, nil
	}
	return allocs, stats, err
}

// verify derives the edit from the IDs and table pointers of the last
// solved input and compares it with ed. A last-solved ID that ed puts among
// the arrivals has returned: its old position is Gone.
func (c *editChecker) verify(apps []alloc.AppInput, ed *alloc.Edit) error {
	if ed.Base != len(c.prev) {
		return fmt.Errorf("base %d, the allocator last solved %d inputs", ed.Base, len(c.prev))
	}
	at := make(map[string]int, len(apps))
	for i, in := range apps {
		at[in.ID] = i
	}
	var gone []int
	var retabled []int
	kept := 0
	for p, in := range c.prev {
		i, ok := at[in.ID]
		if !ok || i >= ed.Base-len(ed.Gone) {
			gone = append(gone, p)
			continue
		}
		if i != kept {
			return fmt.Errorf("%s stood at %d and is at %d, not at survivor position %d", in.ID, p, i, kept)
		}
		if apps[i].Table != in.Table {
			retabled = append(retabled, i)
		}
		kept++
	}
	if !slices.Equal(ed.Gone, gone) {
		return fmt.Errorf("gone %v, the IDs give %v", ed.Gone, gone)
	}
	var listed []int
	for _, i := range ed.Retabled {
		if i < kept {
			listed = append(listed, i)
		}
	}
	if !slices.Equal(listed, retabled) {
		return fmt.Errorf("retabled survivors %v, the IDs give %v", listed, retabled)
	}
	return nil
}

// TestManagerEditsMatchIDWalk drives a Manager through random churn —
// registrations, deregistrations, table uploads, phase changes, arrivals
// that leave before their epoch and instances that return in the window
// they left — inline and coalesced, with degraded rungs (a stall, a failed
// solve, a malformed one), liveness quarantines and readmissions, and a
// panic whose quarantine probe solves single inputs. Every edit the Manager
// passes must match the one the IDs give (editChecker), and more solves
// must take an edit than derive one.
func TestManagerEditsMatchIDWalk(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			runManagerEdits(t, coalesce)
		})
	}
}

func runManagerEdits(t *testing.T, coalesce bool) {
	p := churnTestPlatform(t)
	inner, err := alloc.New(p, alloc.WithCache(alloc.DefaultCacheSize), alloc.WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	checker := &editChecker{t: t, inner: inner}
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          checker,
		DisableExploration: true,
		Coalesce:           CoalescePolicy{Enabled: coalesce},
	})
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*opoint.Table, 6)
	for a := range tables {
		tables[a] = churnTestTable(t, p, fmt.Sprintf("app%d", a), a%2, 1+a%3)
	}
	rng := rand.New(rand.NewSource(1))
	var live, quarantined, left []string
	next := 0
	register := func(id string) {
		app := fmt.Sprintf("app%d", rng.Intn(len(tables)))
		if err := m.Register(id, app, workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	pick := func(ids *[]string) string {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		*ids = slices.Delete(*ids, i, i+1)
		return id
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		register(fmt.Sprintf("s%03d", next))
		next++
	}
	m.Tick()
	for step := 0; step < 400; step++ {
		for e := rng.Intn(4); e >= 0; e-- {
			switch roll := rng.Intn(40); {
			case roll < 10 || len(live) < 20:
				register(fmt.Sprintf("s%03d", next))
				next++
				counts["register"]++
			case roll < 20:
				id := pick(&live)
				if err := m.Deregister(id); err != nil {
					t.Fatal(err)
				}
				left = append(left, id)
				counts["deregister"]++
			case roll < 21 && len(left) > 0:
				register(pick(&left)) // back, after an epoch or in the window it left
				counts["rejoin"]++
			case roll < 22:
				id := pick(&live) // leaves and comes back in one window
				if err := m.Deregister(id); err != nil {
					t.Fatal(err)
				}
				register(id)
				counts["leave and return"]++
			case roll < 24:
				// An arrival that leaves before its epoch, when coalescing.
				id := fmt.Sprintf("s%03d", next)
				next++
				register(id)
				live = live[:len(live)-1]
				if err := m.Deregister(id); err != nil {
					t.Fatal(err)
				}
				counts["arrival left"]++
			case roll < 28:
				a := rng.Intn(len(tables))
				tables[a] = churnTestTable(t, p, fmt.Sprintf("app%d", a), rng.Intn(2), 1+rng.Intn(3))
				if err := m.UploadTable(live[rng.Intn(len(live))], tables[a]); err != nil {
					t.Fatal(err)
				}
				counts["upload"]++
			case roll < 34:
				if err := m.PhaseChange(live[rng.Intn(len(live))], fmt.Sprintf("ph%d", step%3)); err != nil {
					t.Fatal(err)
				}
				counts["phase"]++
			case roll < 35:
				id := pick(&live)
				if err := m.SetLiveness(id, LivenessQuarantined, "test"); err != nil {
					t.Fatal(err)
				}
				quarantined = append(quarantined, id)
				counts["quarantine"]++
			case roll < 36 && len(quarantined) > 0:
				id := pick(&quarantined)
				if err := m.SetLiveness(id, LivenessLive, "test"); err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				counts["readmit"]++
			case roll < 37:
				m.ForceDegradedSolves(1)
				counts["stall"]++
			case roll < 38:
				checker.fault = "error"
				counts["failed solve"]++
			case roll < 39:
				checker.fault = "short"
				counts["malformed solve"]++
			default:
				counts["nothing"]++
			}
		}
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// A solve that panics on every input with more than one session: the
	// probe solves single inputs, finds no culprit, and the ladder degrades.
	checker.fault = "panic"
	register(fmt.Sprintf("s%03d", next))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := m.DegradedRung(); got != alloc.SourceDegradedGreedy {
		t.Fatalf("rung %q after a panicking solve, want %q", got, alloc.SourceDegradedGreedy)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"rejoin", "leave and return", "arrival left", "upload", "quarantine", "readmit", "stall", "failed solve", "malformed solve"} {
		if counts[c] == 0 {
			t.Fatalf("%v: no %q: the run tested too little", counts, c)
		}
	}
	if checker.edits < checker.walked {
		t.Fatalf("%d solves took an edit, %d derived one: the Manager hands out too few edits", checker.edits, checker.walked)
	}
	t.Logf("%d solves took an edit, %d derived one; %v", checker.edits, checker.walked, counts)
}
