package store

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// refMergeTable is mergeTable as it was: one Upsert per uploaded point, a
// scan of the stored table each, so O(n²) per re-upload of n points.
func refMergeTable(s *State, app string, up *opoint.Table) {
	t := s.table(app, up.Platform)
	if t.Platform == "" {
		t.Platform = up.Platform
	}
	for _, p := range up.Points {
		t.Upsert(p)
	}
}

// TestReplayedUploadsMatchUpsertLoop replays a WAL of alternating, repeated
// and reordered 764-point uploads, with measured points in between, and
// requires the recovered table to equal the one the Upsert loop builds from
// the same records.
func TestReplayedUploadsMatchUpsertLoop(t *testing.T) {
	plat := platform.RaptorLake()
	vectors := platform.EnumerateVectors(plat, 0)
	r := rand.New(rand.NewSource(1))
	upload := func(scale float64, order []int) *opoint.Table {
		tbl := &opoint.Table{App: "x", Platform: plat.Name}
		for _, i := range order {
			rv := vectors[i]
			tbl.Points = append(tbl.Points, opoint.OperatingPoint{
				Vector: rv, Utility: scale * float64(1+rv.Threads()), Power: float64(1 + rv.TotalCores()),
			})
		}
		return tbl
	}
	inOrder := make([]int, len(vectors))
	for i := range inOrder {
		inOrder[i] = i
	}
	a, b := upload(1, inOrder), upload(1.5, inOrder)
	point := opoint.OperatingPoint{Vector: vectors[7], Utility: 42, Power: 3, Measured: true, Samples: 20}
	recs := []Record{
		{Kind: RecTable, App: "x", Table: a},
		{Kind: RecTable, App: "x", Table: b},
		{Kind: RecTable, App: "x", Table: a},
		{Kind: RecTable, App: "x", Table: a},
		{Kind: RecPoint, App: "x", Point: &point},
		{Kind: RecTable, App: "x", Table: b},
		{Kind: RecTable, App: "x", Table: upload(2, r.Perm(len(vectors)))},
		{Kind: RecTable, App: "x", Table: upload(3, inOrder[:300])},
		{Kind: RecTable, App: "x", Table: a},
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NewState()
	for i, rec := range recs {
		rec.Seq = i + 1
		appendAll(t, s, rec)
		if rec.Kind == RecTable {
			refMergeTable(want, rec.App, rec.Table)
		} else {
			want.table(rec.App, "").Upsert(*rec.Point)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.WALRecords != len(recs) {
		t.Fatalf("replayed %d WAL records, want %d", rec.WALRecords, len(recs))
	}
	got, ref := s.RecoveredState().Tables["x"], want.Tables["x"]
	if got.App != ref.App || got.Platform != ref.Platform || !reflect.DeepEqual(got.Points, ref.Points) {
		t.Fatalf("recovered table (%d points) differs from the Upsert loop's (%d points)", len(got.Points), len(ref.Points))
	}
}
