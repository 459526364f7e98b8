package opoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"github.com/harp-rm/harp/internal/platform"
)

// table764 is a Raptor Lake description over all 764 resource vectors, with
// the measured and samples fields set on some points.
func table764(t testing.TB) *Table {
	t.Helper()
	plat := platform.RaptorLake()
	rng := rand.New(rand.NewSource(1))
	tbl := &Table{App: "ep.C", Platform: plat.Name}
	for i, rv := range platform.EnumerateVectors(plat, 0) {
		tbl.Points = append(tbl.Points, OperatingPoint{
			Vector:   rv,
			Utility:  rng.Float64() * 4e9,
			Power:    5 + rng.Float64()*120,
			Measured: i%3 != 0,
			Samples:  i % 4,
		})
	}
	return tbl
}

// edgeTable holds the shapes the encoder writes besides full vectors: a nil
// vector, a vector without rows, a null row and a negative sample count.
func edgeTable() *Table {
	return &Table{App: "edge", Platform: "p", Points: []OperatingPoint{
		{Vector: platform.ResourceVector{Counts: [][]int{{1, 0}, {2}}}, Utility: 1.25e9, Power: 14.5, Measured: true, Samples: 3},
		{Utility: -2, Power: 0},
		{Vector: platform.ResourceVector{Counts: [][]int{}}, Utility: 7, Power: 8, Samples: -1},
		{Vector: platform.ResourceVector{Counts: [][]int{nil, {}, {1}}}, Utility: 0.5, Power: 1e-3},
	}}
}

// encoded is what json.Encoder writes for tbl, trailing newline included.
func encoded(t testing.TB, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tbl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saved is what Save writes for tbl: indented, which Decode declines.
func saved(t testing.TB, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRawForwardsWhatDecodeTakes checks which descriptions take the
// single-pass path: json.Marshal and json.Encoder output does, and LoadRaw
// returns it without its trailing whitespace; Save's indented output does
// not, and LoadRaw returns no bytes for it. Both decode to the same table.
func TestLoadRawForwardsWhatDecodeTakes(t *testing.T) {
	for name, tbl := range map[string]*Table{"764": table764(t), "edge": edgeTable(), "no points": {App: "a"}} {
		marshalled, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		for form, desc := range map[string][]byte{"marshal": marshalled, "encoder": encoded(t, tbl), "save": saved(t, tbl)} {
			got, raw, err := LoadRaw(bytes.NewReader(desc))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, form, err)
			}
			if !reflect.DeepEqual(got, tbl) {
				t.Fatalf("%s/%s: loaded %+v, want %+v", name, form, got, tbl)
			}
			if form == "save" {
				if raw != nil {
					t.Fatalf("%s/%s: the indented description took the single-pass path", name, form)
				}
			} else if !bytes.Equal(raw, marshalled) {
				t.Fatalf("%s/%s: raw is not the json.Marshal output", name, form)
			}
		}
	}
}

// TestDecodeStorageIsExactlySized pins the shared backings of a decoded
// 764-point table: the points, the one [][]int all vectors share and the
// one []int all rows share each have exactly the decoded length.
func TestDecodeStorageIsExactlySized(t *testing.T) {
	d := &tableDecoder{b: encoded(t, table764(t))}
	d.b = bytes.TrimRight(d.b, "\n")
	if _, _, _, ok := d.table(); !ok {
		t.Fatal("the single-pass decoder declined the 764-point description")
	}
	points, rows, ints := d.storage()
	nRows, nInts := 0, 0
	for _, p := range points {
		nRows += len(p.Vector.Counts)
		for _, r := range p.Vector.Counts {
			nInts += len(r)
		}
	}
	if len(points) != 764 || cap(points) != 764 || len(rows) != nRows || cap(rows) != nRows || len(ints) != nInts || cap(ints) != nInts {
		t.Fatalf("storage: points %d/%d, rows %d/%d (want %d), ints %d/%d (want %d)",
			len(points), cap(points), len(rows), cap(rows), nRows, len(ints), cap(ints), nInts)
	}
}

// TestDecodeIntegers holds the digit-summing integer scan to encoding/json
// at the edges of int: whatever json.Unmarshal parses as an int, Decode reads
// as the same value, and whatever it rejects, Decode declines.
func TestDecodeIntegers(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	minInt := strconv.Itoa(math.MinInt)
	for _, lit := range []string{
		"0", "-0", "7", "-7", "10", "1234567890",
		maxInt, minInt, "1" + maxInt, minInt + "0",
		maxInt[:len(maxInt)-1] + "8", minInt[:len(minInt)-1] + "9",
		"99999999999999999999", "-99999999999999999999",
		"01", "-", "1.0", "1e2", "+1",
	} {
		desc := `{"app":"a","platform":"p","points":[{"vector":{"counts":[[` + lit + `]]},"utility":1,"power":1,"samples":` + lit + `}]}`
		tbl, ok := Decode([]byte(desc))
		var want int
		if valid := json.Unmarshal([]byte(lit), &want) == nil; ok != valid {
			t.Fatalf("%s: Decode ok = %v, json.Unmarshal ok = %v", lit, ok, valid)
		}
		if !ok {
			continue
		}
		if p := tbl.Points[0]; p.Samples != want || p.Vector.Counts[0][0] != want {
			t.Fatalf("%s: decoded samples %d and count %d, want %d", lit, p.Samples, p.Vector.Counts[0][0], want)
		}
	}
}

// loadReference is Load as it was before the single-pass decoder: a
// json.Decoder with unknown fields disallowed, and an application name
// required.
func loadReference(data []byte) (*Table, error) {
	var tbl Table
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tbl); err != nil {
		return nil, err
	}
	if tbl.App == "" {
		return nil, fmt.Errorf("no application name")
	}
	return &tbl, nil
}

// FuzzLoad holds Load's single-pass path to the json.Decoder it tries
// before: whenever Decode takes an input, json.Decoder with unknown fields
// disallowed decodes that input to a deeply equal table. Load as a whole
// accepts and rejects what the json.Decoder reference does, with equal
// tables, and the bytes LoadRaw hands back are the input up to trailing
// whitespace, which Decode takes.
func FuzzLoad(f *testing.F) {
	f.Add(encoded(f, table764(f)))
	f.Add(encoded(f, edgeTable()))
	marshalled, err := json.Marshal(edgeTable())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshalled)
	f.Add(saved(f, edgeTable()))
	f.Add(append(encoded(f, edgeTable()), "garbage"...))
	f.Add([]byte(`{"app":"","platform":"p","points":null}`))
	f.Add([]byte(`{"app":"a","platform":"p","points":[]} ` + "\t\r\n"))
	f.Add([]byte(`{"app":"a","platform":"p","points":null,"x":1}`))
	f.Add([]byte(`{"app":"a","platform":"p","points":[{"vector":{"counts":[[9223372036854775808]]},"utility":1,"power":1,"samples":-9223372036854775809}]}`))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := Decode(bytes.TrimRight(data, " \t\r\n")); ok {
			var want Table
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("Decode took an input json.Decoder rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, &want) {
				t.Fatalf("Decode = %#v, json.Decoder = %#v for %q", fast, &want, data)
			}
		}
		want, refErr := loadReference(data)
		got, raw, err := LoadRaw(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Load err = %v, reference err = %v for %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Load = %#v, reference = %#v for %q", got, want, data)
		}
		if raw != nil {
			if !bytes.HasPrefix(data, raw) || len(bytes.TrimRight(data[len(raw):], " \t\r\n")) != 0 {
				t.Fatalf("raw %q is not the input %q without trailing whitespace", raw, data)
			}
			if _, ok := Decode(raw); !ok {
				t.Fatalf("Decode declines the raw bytes %q", raw)
			}
		}
	})
}

// BenchmarkLoad764 is a client's read of the 764-point description as
// json.Encoder writes it.
func BenchmarkLoad764(b *testing.B) {
	desc := encoded(b, table764(b))
	r := bytes.NewReader(desc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(desc)
		if _, err := Load(r); err != nil {
			b.Fatal(err)
		}
	}
}
