package opoint

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// TestRuntimeFrontMatchesPareto holds runtimeFront to the generic scan it
// replaces, element for element, over every point and over the points a
// keep function selects: the full 764-vector Raptor Lake tables of every
// Intel profile, exact and jittered, and random tables on both built-in
// platforms whose integer utilities and powers tie often and whose points
// repeat earlier ones.
func TestRuntimeFrontMatchesPareto(t *testing.T) {
	keep := func(op *OperatingPoint) bool { return op.Power > 2 }
	check := func(name string, pts []OperatingPoint) {
		t.Helper()
		if got, want := runtimeFront(pts, nil, 0), Pareto(pts, RuntimeObjectives); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: runtimeFront kept %d points, Pareto %d:\n got %v\nwant %v", name, len(got), len(want), got, want)
		}
		kept := slices.DeleteFunc(slices.Clone(pts), func(op OperatingPoint) bool { return !keep(&op) })
		if got, want := runtimeFront(pts, keep, 0), Pareto(kept, RuntimeObjectives); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, power > 2: runtimeFront kept %d points, Pareto %d:\n got %v\nwant %v", name, len(got), len(want), got, want)
		}
	}
	intel := platform.RaptorLake()
	vectors := platform.EnumerateVectors(intel, 0)
	if len(vectors) != 764 {
		t.Fatalf("Raptor Lake enumerates %d vectors, want 764", len(vectors))
	}
	r := rand.New(rand.NewSource(1))
	for _, prof := range workload.IntelApps() {
		for _, jitter := range []float64{0, 0.02} {
			pts := make([]OperatingPoint, len(vectors))
			for i, rv := range vectors {
				ev := workload.EvaluateVector(intel, prof, rv)
				pts[i] = OperatingPoint{
					Vector:  rv,
					Utility: ev.Utility * (1 + (r.Float64()-0.5)*jitter),
					Power:   ev.PowerWatts * (1 + (r.Float64()-0.5)*jitter),
				}
			}
			check(fmt.Sprintf("%s jitter %g", prof.Name, jitter), pts)
		}
	}
	for _, plat := range []*platform.Platform{intel, platform.OdroidXU3()} {
		vectors := platform.EnumerateVectors(plat, 0)
		for seed := int64(1); seed <= 200; seed++ {
			r := rand.New(rand.NewSource(seed))
			pool := 1 + r.Intn(len(vectors))
			pts := make([]OperatingPoint, 1+r.Intn(300))
			for i := range pts {
				if i > 0 && r.Intn(5) == 0 {
					pts[i] = pts[r.Intn(i)]
				} else {
					pts[i] = OperatingPoint{
						Vector:  vectors[r.Intn(pool)],
						Utility: float64(r.Intn(10)),
						Power:   float64(r.Intn(10)),
					}
				}
				pts[i].Samples = i // tells duplicates apart
			}
			check(fmt.Sprintf("%s seed %d", plat.Name, seed), pts)
		}
	}
}

// fuzzSpecials are the characteristics a fuzz byte ≥ 240 selects: the
// values where the grid must defer to the generic scan, or where float
// comparison and ordering part ways.
var fuzzSpecials = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.25, 1e300, -2, 7.5}

// fuzzPoints decodes a table: per point a header byte (low two bits the
// kind count, bit 2 two hardware threads per core), a utility byte and a
// power byte (below 240 an integer 0–7, else a fuzzSpecials value), then one
// count byte per kind and thread (below 250 a count 0–5; 250 is -1, 251 is
// 5000 cores, past the grid's cap, and 252 and up are 100 cores).
func fuzzPoints(data []byte) []OperatingPoint {
	value := func(b byte) float64 {
		if b < 240 {
			return float64(b % 8)
		}
		return fuzzSpecials[int(b-240)%len(fuzzSpecials)]
	}
	count := func(b byte) int {
		switch {
		case b < 250:
			return int(b % 6)
		case b == 250:
			return -1
		case b == 251:
			return 5000
		}
		return 100
	}
	var pts []OperatingPoint
	for len(data) >= 3 && len(pts) < 512 {
		nk, smt := int(data[0]&3), 1+int(data[0]>>2&1)
		op := OperatingPoint{Utility: value(data[1]), Power: value(data[2]), Samples: len(pts)}
		data = data[3:]
		op.Vector.Counts = make([][]int, nk)
		for k := range op.Vector.Counts {
			op.Vector.Counts[k] = make([]int, smt)
			for t := range op.Vector.Counts[k] {
				if len(data) > 0 {
					op.Vector.Counts[k][t] = count(data[0])
					data = data[1:]
				}
			}
		}
		pts = append(pts, op)
	}
	return pts
}

// FuzzRuntimeFront checks that runtimeFront keeps exactly the points the
// generic Pareto scan keeps, in the same order, or panics exactly when it
// does (rows of different widths), on any table fuzzPoints decodes — over
// every point, and over the even-numbered ones.
func FuzzRuntimeFront(f *testing.F) {
	f.Add([]byte{2, 3, 4, 1, 2, 2, 3, 4, 2, 1, 2, 5, 1, 0, 0})       // plain two-kind table
	f.Add([]byte{2, 240, 4, 1, 2, 2, 3, 240, 2, 1})                  // NaN utility and power
	f.Add([]byte{2, 241, 4, 1, 2, 2, 3, 241, 2, 1, 2, 242, 1, 0, 1}) // ±Inf
	f.Add([]byte{2, 243, 4, 1, 2, 2, 0, 4, 1, 2, 2, 3, 243, 2, 1})   // -0 against 0
	f.Add([]byte{2, 3, 4, 1, 2, 1, 3, 4, 2})                         // one and two kinds
	f.Add([]byte{1, 3, 4, 251, 1, 5, 2, 1})                          // 5000 cores: past the cap
	f.Add([]byte{2, 3, 4, 252, 252, 2, 5, 1, 1, 1})                  // 101 × 101 cells: past the cap
	f.Add([]byte{2, 3, 4, 250, 2, 2, 3, 4, 2, 1})                    // a negative count
	f.Add([]byte{6, 3, 4, 1, 1, 2, 0, 6, 4, 1, 0, 0, 2, 1, 1, 0, 0}) // two threads per core
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		run := func(front func([]OperatingPoint) []OperatingPoint) (kept []int, panicked bool) {
			defer func() { panicked = recover() != nil }()
			for _, op := range front(pts) {
				kept = append(kept, op.Samples)
			}
			return kept, false
		}
		even := func(op *OperatingPoint) bool { return op.Samples%2 == 0 }
		for _, keep := range []func(*OperatingPoint) bool{nil, even} {
			got, gotPanic := run(func(pts []OperatingPoint) []OperatingPoint { return runtimeFront(pts, keep, 0) })
			want, wantPanic := run(func(pts []OperatingPoint) []OperatingPoint {
				if keep != nil {
					pts = slices.DeleteFunc(slices.Clone(pts), func(op OperatingPoint) bool { return !keep(&op) })
				}
				return Pareto(pts, RuntimeObjectives)
			})
			if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
				t.Fatalf("runtimeFront (keep %v) kept %v (panicked %v), Pareto %v (panicked %v) of %v", keep != nil, got, gotPanic, want, wantPanic, pts)
			}
		}
	})
}
