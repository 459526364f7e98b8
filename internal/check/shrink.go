package check

import (
	"os"
	"path/filepath"
	"slices"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// FailFunc reproduces the failure under investigation: it returns a non-nil
// error when the instance still exhibits it. Shrinking keeps only reductions
// that preserve the failure, so the predicate must be deterministic.
type FailFunc func(p *platform.Platform, inputs []alloc.AppInput) error

// Shrink greedily minimises a failing instance: it repeatedly tries to drop
// whole applications, then individual operating points, keeping every
// reduction under which fail still returns an error, until a fixpoint. The
// returned instance is the smallest found, together with the failure it
// still produces. Inputs are never written; shrunk tables are new tables.
//
// Greedy one-at-a-time deletion is not globally minimal, but in practice it
// collapses 4-app × 8-point counterexamples to the 2-app × 2-point core of
// the bug, which is what a human needs to see.
func Shrink(p *platform.Platform, inputs []alloc.AppInput, fail FailFunc) ([]alloc.AppInput, error) {
	cur := slices.Clone(inputs)
	err := fail(p, cur)
	if err == nil {
		return cur, nil
	}
	for shrunk := true; shrunk; {
		shrunk = false
		// Drop whole applications.
		for i := 0; i < len(cur); i++ {
			if len(cur) == 1 {
				break
			}
			cand := slices.Delete(slices.Clone(cur), i, i+1)
			if e := fail(p, cand); e != nil {
				cur, err = cand, e
				shrunk = true
				i--
			}
		}
		// Drop individual operating points. Each attempt builds a fresh
		// table: the solver under test may have read (and memoised) the
		// current one.
		for i := 0; i < len(cur); i++ {
			for j := 0; cur[i].Table != nil && j < len(cur[i].Table.Points); j++ {
				tbl := cur[i].Table
				if len(tbl.Points) == 1 {
					break
				}
				cand := slices.Clone(cur)
				cand[i].Table = &opoint.Table{App: tbl.App, Platform: tbl.Platform,
					Points: slices.Delete(slices.Clone(tbl.Points), j, j+1)}
				if e := fail(p, cand); e != nil {
					cur, err = cand, e
					shrunk = true
					j--
				}
			}
		}
	}
	return cur, err
}

// WriteArtifact saves a counterexample dump under $HARP_CHECK_ARTIFACTS for
// CI to upload, returning the written path ("" when the variable is unset or
// the write fails — artifact capture must never mask the test failure
// itself).
func WriteArtifact(name string, data []byte) string {
	dir := os.Getenv("HARP_CHECK_ARTIFACTS")
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}
