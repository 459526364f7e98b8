package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// generated renders everything the generators derive from a seed into one
// byte string.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	plat := platform.RaptorLake()
	rng := rand.New(rand.NewSource(seed))
	family, err := admitFamily(plat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		raw, err := encodeTable(smallTable(plat, family, fmt.Sprintf("pop-%d", i), admitTablePoints, rng))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
	}
	churn := harpsim.ChurnPlatform(4, 8)
	tables := churnTables(churn, churnApps, rng)
	for a := 0; a < churnApps; a++ {
		raw, err := encodeTable(tables[fmt.Sprintf("churn-app-%d", a)])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
	}
	stream := newChurnStream(seed, 50, churnApps)
	fmt.Fprintln(&buf, stream.ramp())
	for i := 0; i < 20; i++ {
		fmt.Fprintln(&buf, stream.nextTick(churnEventsPerTick))
	}
	return buf.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestSmallTablesStayBelowRefinement(t *testing.T) {
	plat := platform.RaptorLake()
	family, err := admitFamily(plat)
	if err != nil {
		t.Fatal(err)
	}
	tbl := smallTable(plat, family, "x", admitTablePoints, rand.New(rand.NewSource(1)))
	if !tbl.Points[0].Vector.Equal(family[0]) {
		t.Fatalf("first point is %s, want the family's three-E-core vector", tbl.Points[0].Vector)
	}
	if len(tbl.Points) != admitTablePoints {
		t.Fatalf("%d points, want %d distinct vectors", len(tbl.Points), admitTablePoints)
	}
	if err := tbl.Validate(plat); err != nil {
		t.Fatal(err)
	}
	for _, p := range tbl.Points {
		if p.Vector.IsZero() || p.Utility <= 0 || p.Power <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

// TestRetableVariantsFlip checks, for several seeds, that the two variants
// are byte-reproducible and really select different vectors — the property
// that makes every daemon-retable upload end in an activation.
func TestRetableVariantsFlip(t *testing.T) {
	plat := platform.RaptorLake()
	suite := workload.IntelApps()
	var tables []*opoint.Table
	for _, name := range retableApps {
		prof, err := workload.ByName(suite, name)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, dseTable(plat, prof))
	}
	if n := len(tables[0].Points); n != 764 {
		t.Fatalf("DSE table has %d points, want 764", n)
	}
	for seed := int64(1); seed <= 3; seed++ {
		a, b, err := retableVariants(plat, tables, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		va, err := chosenVector(plat, a, tables[1:])
		if err != nil {
			t.Fatal(err)
		}
		vb, err := chosenVector(plat, b, tables[1:])
		if err != nil {
			t.Fatal(err)
		}
		if va.Equal(vb) {
			t.Errorf("seed %d: both variants select %s", seed, va)
		}
		a2, b2, err := retableVariants(plat, tables, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*opoint.Table{{a, a2}, {b, b2}} {
			x, _ := encodeTable(pair[0])
			y, _ := encodeTable(pair[1])
			if !bytes.Equal(x, y) {
				t.Errorf("seed %d: variant bytes differ between two generations", seed)
			}
		}
	}
}

// TestBenchmarkJSONMatchesSpec is the contract's self-check: BENCHMARK.json
// lists exactly the workloads and metrics the program emits, within the
// driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 {
		t.Errorf("command has %d words", len(doc.Command))
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 × workloads runs, with set-up, must fit the driver's cap.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*float64(doc.RunSeconds+12) > 3420-240 {
		t.Errorf("%d runs of %d s plus set-up do not fit in 3420 s", runs, doc.RunSeconds)
	}

	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %q: why differs from the program's or exceeds 200 characters", w.Name)
		}
	}

	if len(doc.EndToEnd) > 16 || len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		unique(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %q (%s), the program reports %q (%s)", i, m.Name, m.Unit, want.name, want.unit)
		}
		if m.Better != "lower" {
			t.Errorf("%s: better = %q, every end-to-end metric is lower-is-better", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound != want.bound {
			t.Errorf("%s: bound missing, outside (0, 0.25] or different from the program's %v", m.Name, want.bound)
		}
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" {
		t.Error("the contract requires a setup_s metric in seconds")
	}

	if len(doc.PerLayer) > 128 || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		unique(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %q (%s), the program reports %q (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
