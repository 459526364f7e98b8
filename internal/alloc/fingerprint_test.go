package alloc

import (
	"fmt"
	"math"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// TestFingerprintMixerSoundness flips single bits in every field the
// fingerprint covers, plus the two multi-word changes a weak mixer lets
// cancel or commute: every variant must change the Fingerprint.
func TestFingerprintMixerSoundness(t *testing.T) {
	p := platform.OdroidXU3()
	a := newAllocator(t, p, WithCache(4))
	base := cacheInputs(t, p)
	fp0, ok := a.fingerprintInputs(base)
	if !ok {
		t.Fatal("fingerprint not computed")
	}
	check := func(label string, mutate func(in []AppInput)) {
		t.Helper()
		in := make([]AppInput, len(base))
		for i, app := range base {
			in[i] = app
			in[i].Table = app.Table.Clone()
		}
		mutate(in)
		for _, app := range in {
			app.Table.Invalidate()
		}
		if fp, _ := a.fingerprintInputs(in); fp == fp0 {
			t.Errorf("%s leaves the fingerprint unchanged", label)
		}
	}
	flipFloat := func(field string, f func(in []AppInput) *float64) {
		for b := 0; b < 64; b++ {
			check(fmt.Sprintf("%s bit %d", field, b), func(in []AppInput) {
				*f(in) = math.Float64frombits(math.Float64bits(*f(in)) ^ 1<<b)
			})
		}
	}
	flipString := func(field string, s func(in []AppInput) *string) {
		for i := 0; i < len(*s(base)); i++ {
			for b := 0; b < 8; b++ {
				check(fmt.Sprintf("%s byte %d bit %d", field, i, b), func(in []AppInput) {
					buf := []byte(*s(in))
					buf[i] ^= 1 << b
					*s(in) = string(buf)
				})
			}
		}
	}

	flipString("app ID", func(in []AppInput) *string { return &in[1].ID })
	flipFloat("utility", func(in []AppInput) *float64 { return &in[0].Table.Points[3].Utility })
	flipFloat("power", func(in []AppInput) *float64 { return &in[1].Table.Points[5].Power })
	check("measured flag", func(in []AppInput) { in[0].Table.Points[2].Measured = !in[0].Table.Points[2].Measured })
	for k := range base[0].Table.Points[4].Vector.Counts {
		for s := range base[0].Table.Points[4].Vector.Counts[k] {
			for b := 0; b < 64; b++ {
				check(fmt.Sprintf("vector count [%d][%d] bit %d", k, s, b), func(in []AppInput) {
					c := &in[0].Table.Points[4].Vector.Counts[k][s]
					*c = int(uint64(*c) ^ 1<<b)
				})
			}
		}
	}
	flipString("table app name", func(in []AppInput) *string { return &in[0].Table.App })
	flipString("table platform name", func(in []AppInput) *string { return &in[1].Table.Platform })

	// Two sign flips: the same high bit flipped in two words. A bare
	// (h^v)*prime lane keeps a bit-63 difference at bit 63, so the second flip
	// cancels the first.
	n := len(base[0].Table.Points)
	for _, pair := range [][2]int{{0, 1}, {0, n - 1}, {2, 3}} {
		check(fmt.Sprintf("utility sign flips on points %d and %d", pair[0], pair[1]), func(in []AppInput) {
			pts := in[0].Table.Points
			pts[pair[0]].Utility = -pts[pair[0]].Utility
			pts[pair[1]].Utility = -pts[pair[1]].Utility
		})
	}
	check("swapped apps", func(in []AppInput) { in[0], in[1] = in[1], in[0] })
}
