package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Every input the benchmark feeds the system under test is generated here,
// as a pure function of the -seed argument: the same seed yields the same
// bytes (pinned by TestGeneratorsAreDeterministic).

// admitFamily is the vector family the daemon-admit population's tables are
// drawn from: applications that scale in steps of three E-cores, optionally
// with P-cores on top. The structure is what makes the workload repeat
// across seeds. Raptor Lake has 16 E-cores, every table holds the bare
// three-E-core point, so the standing population's isolated sessions always
// fill 15 of them and everyone else time-shares; the admitted application
// (no table yet: one E-core) always takes the sixteenth, which moves the
// time-shared sessions' round-robin grants — every admission and every exit
// is a full push fan-out over the population. With vectors drawn freely from
// the design space, whether that sixteenth core was left over depended on
// the seed, and the op cost was bimodal (1.8 ms or 5.3 ms).
func admitFamily(plat *platform.Platform) ([]platform.ResourceVector, error) {
	var out []platform.ResourceVector
	for _, v := range [][3]int{ // P-cores on one thread, P-cores on two, E-cores
		{0, 0, 3}, {0, 0, 6}, {0, 0, 9}, {0, 0, 12}, {0, 0, 15},
		{1, 0, 3}, {0, 1, 3}, {0, 2, 3}, {2, 0, 6}, {0, 2, 6}, {0, 4, 6}, {0, 4, 9},
	} {
		rv, err := platform.VectorOf(plat, []int{v[0], v[1]}, []int{v[2]})
		if err != nil {
			return nil, fmt.Errorf("gen: admit family on %s: %w", plat.Name, err)
		}
		out = append(out, rv)
	}
	return out, nil
}

// smallTable builds an n-point seeded description: the family's first vector
// plus n-1 others chosen by the seed, with utility growing sub-linearly and
// power linearly in the granted hardware threads, both jittered per point.
func smallTable(plat *platform.Platform, family []platform.ResourceVector, app string, n int, rng *rand.Rand) *opoint.Table {
	t := &opoint.Table{App: app, Platform: plat.Name}
	scale := 0.5 + rng.Float64()
	picks := []int{0}
	for _, i := range rng.Perm(len(family) - 1)[:n-1] {
		picks = append(picks, i+1)
	}
	for _, i := range picks {
		rv := family[i]
		threads := float64(rv.Threads())
		var watts float64
		for k, kind := range plat.Kinds {
			watts += float64(rv.Cores(platform.KindID(k))) * kind.ActiveWatts
		}
		t.Upsert(opoint.OperatingPoint{
			Vector:   rv.Clone(),
			Utility:  scale * (1 + 4*threads/(threads+6)) * (0.8 + 0.4*rng.Float64()),
			Power:    watts * (0.7 + 0.6*rng.Float64()),
			Measured: true,
		})
	}
	return t
}

// dseTable is the full design-space description of one application profile:
// every enumerated vector evaluated in closed form (764 points on Raptor
// Lake), as a vendor would ship it.
func dseTable(plat *platform.Platform, prof *workload.Profile) *opoint.Table {
	t := &opoint.Table{App: prof.Name, Platform: plat.Name}
	for _, rv := range platform.EnumerateVectors(plat, 0) {
		ev := workload.EvaluateVector(plat, prof, rv)
		t.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts, Measured: true})
	}
	return t
}

// retableApps are the eight applications of the daemon-retable population;
// the first is the active client.
var retableApps = []string{"ep.C", "mg.C", "cg.C", "ft.C", "sp.C", "bt.C", "lu.C", "ua.C"}

// encodeTable renders a table the way an application description file
// holds it (compact JSON).
func encodeTable(t *opoint.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(t); err != nil {
		return nil, fmt.Errorf("gen: encode table %s: %w", t.App, err)
	}
	return buf.Bytes(), nil
}

// retableVariants derives the two descriptions the active daemon-retable
// client alternates between. Variant A is the table as generated, with a
// seeded ±1 % jitter on every point; variant B additionally makes every
// point that uses more cores than A's optimal vector drastically less
// useful, and every smaller point slightly more useful, so that the
// cost-optimal vector moves. The flip is verified by solving both
// populations with the production allocator; an unflipped pair is an error
// (the workload would then have ops without an activation).
//
// In both variants the point with the most cores has its utility replaced by
// retableStamp, which makes it useless to every solver (its cost is ~10¹⁸
// times the others') and gives the encoded description one number the
// workload can overwrite per upload: see stampedTable.
func retableVariants(plat *platform.Platform, tables []*opoint.Table, rng *rand.Rand) (a, b *opoint.Table, err error) {
	a = tables[0].Clone()
	stamp := 0 // the point with the most cores carries the stamp
	for i := range a.Points {
		a.Points[i].Utility *= 0.99 + 0.02*rng.Float64()
		a.Points[i].Power *= 0.99 + 0.02*rng.Float64()
		if a.Points[i].Vector.TotalCores() > a.Points[stamp].Vector.TotalCores() {
			stamp = i
		}
	}
	a.Points[stamp].Utility = retableStamp
	a.Invalidate()
	chosenA, err := chosenVector(plat, a, tables[1:])
	if err != nil {
		return nil, nil, err
	}
	pivot := chosenA.TotalCores()
	for _, strength := range []float64{0.5, 0.25, 0.1} {
		b = a.Clone()
		for i := range b.Points {
			if b.Points[i].Vector.TotalCores() >= pivot {
				b.Points[i].Utility *= strength
			} else {
				b.Points[i].Utility *= 1.05
			}
		}
		b.Points[stamp].Utility = retableStamp
		b.Invalidate()
		chosenB, err := chosenVector(plat, b, tables[1:])
		if err != nil {
			return nil, nil, err
		}
		if !chosenB.Equal(chosenA) {
			return a, b, nil
		}
	}
	return nil, nil, fmt.Errorf("gen: retable variants do not flip the optimal vector %s", chosenA)
}

// retableStamp is the placeholder utility of a variant's stamp point; its
// nine fractional digits are what stampedTable.next overwrites.
const retableStamp = 1.123456789

// stampedTable is an encoded description whose stamp can be rewritten in
// place, so that every upload carries content the daemon has never seen. The
// allocator's solution cache is content-addressed: two variants merely
// alternating would be two cache entries, and every upload after the second
// a cache hit.
type stampedTable struct {
	desc []byte
	at   int // offset of the stamp's fractional digits
}

func newStampedTable(t *opoint.Table) (*stampedTable, error) {
	desc, err := encodeTable(t)
	if err != nil {
		return nil, err
	}
	token := []byte(strconv.FormatFloat(retableStamp, 'f', -1, 64))
	at := bytes.Index(desc, token)
	if at < 0 || bytes.Count(desc, token) != 1 {
		return nil, fmt.Errorf("gen: description of %s does not hold exactly one stamp", t.App)
	}
	return &stampedTable{desc: desc, at: at + 2}, nil
}

// next writes serial into the stamp and returns the description. The bytes
// are only valid until the next call.
func (s *stampedTable) next(serial int) []byte {
	for i := 8; i >= 0; i-- {
		s.desc[s.at+i] = byte('0' + serial%10)
		serial /= 10
	}
	return s.desc
}

// chosenVector solves the population {active, others...} from scratch and
// returns the vector selected for the active table.
func chosenVector(plat *platform.Platform, active *opoint.Table, others []*opoint.Table) (platform.ResourceVector, error) {
	solver, err := alloc.New(plat)
	if err != nil {
		return platform.ResourceVector{}, err
	}
	inputs := []alloc.AppInput{{ID: "active", Table: active}}
	for i, t := range others {
		inputs = append(inputs, alloc.AppInput{ID: fmt.Sprintf("other-%d", i), Table: t})
	}
	allocs, err := solver.Allocate(inputs)
	if err != nil {
		return platform.ResourceVector{}, err
	}
	return allocs[0].Point.Vector, nil
}

// churnEventKind enumerates the churn-10k driver's mutating events.
type churnEventKind uint8

const (
	evArrive churnEventKind = iota
	evDepart
	evPhase
)

// churnEvent is one pre-generated mutating event.
type churnEvent struct {
	kind  churnEventKind
	id    string // session instance
	app   string // evArrive: application name (selects the table)
	phase string // evPhase
}

// churnStream reproduces harpsim.RunChurn's arrival process — Poisson event
// bursts per tick; 35 % arrivals (each followed by its table upload), 35 %
// departures while the population is above half the target, phase changes
// otherwise — as a pre-generated list per tick, so the measured phase
// allocates nothing on the driver side and the stream is a pure function of
// the seed.
type churnStream struct {
	rng    *rand.Rand
	target int
	nApps  int
	live   []string
	nextID int
	tick   int
}

func newChurnStream(seed int64, target, nApps int) *churnStream {
	return &churnStream{rng: rand.New(rand.NewSource(seed)), target: target, nApps: nApps}
}

func (c *churnStream) arrive() churnEvent {
	ev := churnEvent{
		kind: evArrive,
		id:   fmt.Sprintf("s%06d", c.nextID),
		app:  fmt.Sprintf("churn-app-%d", c.nextID%c.nApps),
	}
	c.nextID++
	c.live = append(c.live, ev.id)
	return ev
}

// ramp returns the arrivals that build the target population.
func (c *churnStream) ramp() []churnEvent {
	var evs []churnEvent
	for len(c.live) < c.target {
		evs = append(evs, c.arrive())
	}
	return evs
}

// nextTick returns the events of one adaptation tick.
func (c *churnStream) nextTick(eventsPerTick float64) []churnEvent {
	n := poisson(c.rng, eventsPerTick)
	evs := make([]churnEvent, 0, n)
	for e := 0; e < n; e++ {
		r := c.rng.Float64()
		switch {
		case r < 0.35 || len(c.live) == 0:
			evs = append(evs, c.arrive())
		case r < 0.70 && len(c.live) > c.target/2:
			i := c.rng.Intn(len(c.live))
			evs = append(evs, churnEvent{kind: evDepart, id: c.live[i]})
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
		default:
			evs = append(evs, churnEvent{
				kind:  evPhase,
				id:    c.live[c.rng.Intn(len(c.live))],
				phase: fmt.Sprintf("ph%d", c.tick%4),
			})
		}
	}
	c.tick++
	return evs
}

// poisson samples a Poisson variate by Knuth's product method.
func poisson(rng *rand.Rand, lambda float64) int {
	limit, k, p := math.Exp(-lambda), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// churnTables builds one two-point table per churn application, each living
// on a single core kind (so kind footprints partition the population into
// sharding domains) with seeded characteristics.
func churnTables(plat *platform.Platform, nApps int, rng *rand.Rand) map[string]*opoint.Table {
	out := make(map[string]*opoint.Table, nApps)
	for a := 0; a < nApps; a++ {
		app := fmt.Sprintf("churn-app-%d", a)
		kind := a % len(plat.Kinds)
		t := &opoint.Table{App: app, Platform: plat.Name}
		base := 3 + 3*rng.Float64()
		for cores := 1; cores <= 2; cores++ {
			rv := platform.NewResourceVector(plat)
			rv.Counts[kind][0] = cores
			t.Upsert(opoint.OperatingPoint{
				Vector:   rv,
				Utility:  base * float64(cores) * (0.7 + 0.2*rng.Float64()),
				Power:    (1.2 + 0.6*rng.Float64()) * float64(cores),
				Measured: true,
			})
		}
		out[app] = t
	}
	return out
}
