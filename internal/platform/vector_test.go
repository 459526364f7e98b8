package platform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExample returns the paper's worked example on Raptor Lake: one P-core
// on a single hardware thread, two P-cores on both, four E-cores → [1 2 | 4].
func paperExample(t *testing.T) (*Platform, ResourceVector) {
	t.Helper()
	p := RaptorLake()
	rv, err := VectorOf(p, []int{1, 2}, []int{4})
	if err != nil {
		t.Fatalf("VectorOf: %v", err)
	}
	return p, rv
}

func TestVectorPaperExample(t *testing.T) {
	_, rv := paperExample(t)
	if got := rv.Threads(); got != 9 {
		t.Errorf("Threads = %d, want 9 (1·1 + 2·2 + 4·1)", got)
	}
	if got := rv.Cores(0); got != 3 {
		t.Errorf("P cores = %d, want 3", got)
	}
	if got := rv.Cores(1); got != 4 {
		t.Errorf("E cores = %d, want 4", got)
	}
	if got := rv.TotalCores(); got != 7 {
		t.Errorf("TotalCores = %d, want 7", got)
	}
	if got := rv.Key(); got != "1,2|4" {
		t.Errorf("Key = %q, want \"1,2|4\"", got)
	}
	if got := rv.CoreDemand(); got[0] != 3 || got[1] != 4 {
		t.Errorf("CoreDemand = %v, want [3 4]", got)
	}
}

func TestVectorOfShapeErrors(t *testing.T) {
	p := RaptorLake()
	if _, err := VectorOf(p, []int{1, 2}); err == nil {
		t.Error("missing kind accepted")
	}
	if _, err := VectorOf(p, []int{1}, []int{4}); err == nil {
		t.Error("wrong SMT width accepted")
	}
	if _, err := VectorOf(p, []int{1, 2}, []int{17}); err == nil {
		t.Error("over-capacity kind accepted")
	}
	if _, err := VectorOf(p, []int{-1, 2}, []int{4}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := VectorOf(p, []int{5, 5}, []int{0}); err == nil {
		t.Error("10 P-cores on an 8 P-core machine accepted")
	}
}

func TestVectorCloneIsDeep(t *testing.T) {
	_, rv := paperExample(t)
	clone := rv.Clone()
	clone.Counts[0][0] = 99
	if rv.Counts[0][0] == 99 {
		t.Fatal("Clone shares backing storage")
	}
	if !rv.Clone().Equal(rv) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	p, rv := paperExample(t)
	parsed, err := ParseKey(p, rv.Key())
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if !parsed.Equal(rv) {
		t.Errorf("round trip = %v, want %v", parsed, rv)
	}
	for _, bad := range []string{"", "1,2", "1,2|4|5", "a,b|c", "1,2|99"} {
		if _, err := ParseKey(p, bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
		}
	}
}

func TestFeatures(t *testing.T) {
	_, rv := paperExample(t)
	got := rv.Features()
	want := []float64{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Features = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Features = %v, want %v", got, want)
		}
	}
}

func TestIsZero(t *testing.T) {
	p := RaptorLake()
	if !NewResourceVector(p).IsZero() {
		t.Error("fresh vector not zero")
	}
	_, rv := paperExample(t)
	if rv.IsZero() {
		t.Error("paper example reported zero")
	}
}

func TestEnumerateVectorsOdroid(t *testing.T) {
	p := OdroidXU3()
	vecs := EnumerateVectors(p, 0)
	// (0..4 big) × (0..4 LITTLE) minus the all-zero config = 24.
	if len(vecs) != 24 {
		t.Fatalf("len = %d, want 24", len(vecs))
	}
	seen := make(map[string]bool, len(vecs))
	for _, rv := range vecs {
		if rv.IsZero() {
			t.Error("enumeration contains the zero vector")
		}
		if err := rv.Validate(p); err != nil {
			t.Errorf("invalid enumerated vector %v: %v", rv, err)
		}
		if seen[rv.Key()] {
			t.Errorf("duplicate vector %v", rv)
		}
		seen[rv.Key()] = true
	}
}

func TestEnumerateVectorsCap(t *testing.T) {
	p := RaptorLake()
	vecs := EnumerateVectors(p, 2)
	// P kind (smt 2): pairs (c1,c2) with c1+c2 ≤ 2 → 6 options;
	// E kind: 0..2 → 3 options; minus all-zero → 17.
	if len(vecs) != 17 {
		t.Fatalf("len = %d, want 17", len(vecs))
	}
	for _, rv := range vecs {
		if rv.Cores(0) > 2 || rv.Cores(1) > 2 {
			t.Errorf("vector %v exceeds per-kind cap 2", rv)
		}
	}
}

// Property: for any valid vector, Add with its own zero then Sub of itself
// yields zero, and Threads ≥ TotalCores.
func TestVectorAlgebraProperties(t *testing.T) {
	p := RaptorLake()
	rng := rand.New(rand.NewSource(7))
	randVec := func(r *rand.Rand) ResourceVector {
		rv := NewResourceVector(p)
		for kind, k := range p.Kinds {
			remaining := k.Count
			for tIdx := 0; tIdx < k.SMT; tIdx++ {
				c := r.Intn(remaining + 1)
				rv.Counts[kind][tIdx] = c
				remaining -= c
			}
		}
		return rv
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rv := randVec(r)
		if err := rv.Validate(p); err != nil {
			return false
		}
		if rv.Threads() < rv.TotalCores() {
			return false
		}
		round, err := ParseKey(p, rv.Key())
		return err == nil && round.Equal(rv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
