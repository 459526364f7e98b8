package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// writeReference is the encoder Write replaced: the body marshalled, then
// marshalled again inside the Envelope, and header and frame written with
// two calls. It stays as the byte-for-byte reference for Write's frames.
func writeReference(w io.Writer, typ MsgType, body any) error {
	if !utf8.ValidString(string(typ)) {
		return fmt.Errorf("proto: message type %q is not valid UTF-8", typ)
	}
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		raw = b
	}
	frame, err := json.Marshal(Envelope{Type: typ, Body: raw})
	if err != nil {
		return err
	}
	if len(frame) > MaxFrame {
		return ErrFrameTooLarge
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(frame)))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// table764 is the real shape of a Raptor Lake upload: every one of the
// platform's 764 resource vectors, with seeded float characteristics and the
// measured/samples fields set on some points.
func table764(t testing.TB) *opoint.Table {
	t.Helper()
	plat := platform.RaptorLake()
	rng := rand.New(rand.NewSource(1))
	tbl := &opoint.Table{App: "ep.C", Platform: plat.Name}
	for i, rv := range platform.EnumerateVectors(plat, 0) {
		tbl.Points = append(tbl.Points, opoint.OperatingPoint{
			Vector:   rv,
			Utility:  rng.Float64() * 4e9,
			Power:    5 + rng.Float64()*120,
			Measured: i%3 != 0,
			Samples:  i % 4,
		})
	}
	if len(tbl.Points) != 764 {
		t.Fatalf("Raptor Lake enumerates %d vectors, want 764", len(tbl.Points))
	}
	return tbl
}

// smallTable is a few real Raptor Lake points plus the edge shapes the
// encoder produces: a nil vector, a vector without rows and an unmeasured,
// unsampled point.
func smallTable() *opoint.Table {
	plat := platform.RaptorLake()
	vecs := platform.EnumerateVectors(plat, 0)
	return &opoint.Table{App: "ep.C", Platform: plat.Name, Points: []opoint.OperatingPoint{
		{Vector: vecs[0], Utility: 1.25e9, Power: 14.5, Measured: true, Samples: 3},
		{Vector: vecs[100], Utility: 3e9, Power: 61.125, Measured: true},
		{Vector: vecs[763], Utility: 0.5, Power: 1e-3},
		{Utility: -2, Power: 0},
		{Vector: platform.ResourceVector{Counts: [][]int{}}, Utility: 7, Power: 8, Samples: -1},
	}}
}

func marshalBody(t testing.TB, tbl *opoint.Table) []byte {
	t.Helper()
	b, err := json.Marshal(OperatingPoints{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWriteMatchesReference pins the wire bytes: every frame Write produces
// is byte-identical to the two-marshal reference encoder's, and goes out in
// one Write call.
func TestWriteMatchesReference(t *testing.T) {
	cases := []struct {
		typ  MsgType
		body any
	}{
		{MsgRegister, Register{PID: 1234, App: "ep.C", Adaptivity: "scalable", OwnUtility: true, ReplyAddr: "/tmp/x.sock"}},
		{MsgRegisterAck, RegisterAck{OK: false, Error: "dup <session> & more"}},
		{MsgActivate, Activate{Seq: 7, VectorKey: "1,2|4", Threads: 9, Cores: []CoreGrant{{Core: 0, Threads: 1}}}},
		{MsgUtilityReport, UtilityReport{Seq: 3, Utility: 42.5}},
		{MsgOperatingPoints, OperatingPoints{Table: smallTable()}},
		{MsgOperatingPoints, OperatingPoints{Table: table764(t)}},
		{MsgOperatingPoints, OperatingPoints{}},
		{MsgExit, nil},
		{MsgPong, json.RawMessage("null")},
		{MsgType("a<b>&c"), json.RawMessage(` { "x" : [1, 2] } `)},
		{MsgType("é \"\\\x01"), PhaseChange{Phase: " "}},
		{MsgType(""), nil},
	}
	for _, c := range cases {
		var got, want bytes.Buffer
		calls := &countingWriter{w: &got}
		if err := Write(calls, c.typ, c.body); err != nil {
			t.Fatalf("Write(%q): %v", c.typ, err)
		}
		if err := writeReference(&want, c.typ, c.body); err != nil {
			t.Fatalf("reference(%q): %v", c.typ, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("Write(%q) frame differs from the reference:\n got %q\nwant %q", c.typ, got.Bytes(), want.Bytes())
		}
		if calls.n != 1 {
			t.Errorf("Write(%q) made %d writes, want 1", c.typ, calls.n)
		}
	}
}

// TestWriteTableMatchesWrite checks that framing a table's json.Marshal
// bytes gives the frame Write marshals for the table itself.
func TestWriteTableMatchesWrite(t *testing.T) {
	for _, tbl := range []*opoint.Table{smallTable(), table764(t)} {
		table, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		calls := &countingWriter{w: &got}
		if err := WriteTable(calls, table); err != nil {
			t.Fatal(err)
		}
		if err := Write(&want, MsgOperatingPoints, OperatingPoints{Table: tbl}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || calls.n != 1 {
			t.Fatalf("WriteTable made %d writes of %q, want one of %q", calls.n, got.Bytes(), want.Bytes())
		}
	}
}

// TestDecodeBodyOfDecodedUpload checks that an upload into an
// OperatingPoints that already holds a table replaces the table and leaves
// the held one as it was, whether Read decoded the upload, the single-pass
// decoder takes its body or json.Unmarshal does; and that an upload Read
// decoded goes into no other destination.
func TestDecodeBodyOfDecodedUpload(t *testing.T) {
	body := marshalBody(t, smallTable())
	frame := frames(t, 1, MsgOperatingPoints, json.RawMessage(body))
	decoded, err := Read(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.table == nil || decoded.Body != nil {
		t.Fatal("Read did not decode the upload")
	}
	spaced := append([]byte(`{"table": `), body[len(tableKey):]...)
	for _, c := range []struct {
		name string
		env  Envelope
	}{
		{"read", decoded},
		{"body", Envelope{Type: MsgOperatingPoints, Body: body}},
		{"unmarshal", Envelope{Type: MsgOperatingPoints, Body: spaced}},
	} {
		name, env := c.name, c.env
		old := &opoint.Table{App: "old"}
		held := OperatingPoints{Table: old}
		if err := DecodeBody(env, MsgOperatingPoints, &held); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(held.Table, smallTable()) {
			t.Fatalf("%s: DecodeBody into a held table gave %+v", name, held.Table)
		}
		if held.Table == old || old.App != "old" || old.Points != nil {
			t.Fatalf("%s: DecodeBody wrote the held table: %+v", name, old)
		}
	}
	var got any
	if err := DecodeBody(decoded, MsgOperatingPoints, &got); err == nil || got != nil {
		t.Fatalf("DecodeBody of a decoded upload into %T: %v, %v; want an error", &got, got, err)
	}
}

type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n++
	return c.w.Write(p)
}

// TestDecodeTableAcceptsMarshalled checks the fast path takes every shape
// json.Marshal produces for an upload — otherwise the differential fuzzer
// would pass vacuously — and decodes it as json.Unmarshal does.
func TestDecodeTableAcceptsMarshalled(t *testing.T) {
	tables := map[string]*opoint.Table{
		"764":         table764(t),
		"small":       smallTable(),
		"no points":   {App: "a", Platform: "p"},
		"empty":       {App: "", Platform: "", Points: []opoint.OperatingPoint{}},
		"null counts": {App: "a", Platform: "p", Points: []opoint.OperatingPoint{{Utility: 1}}},
		"null row":    {App: "a", Platform: "p", Points: []opoint.OperatingPoint{{Vector: platform.ResourceVector{Counts: [][]int{nil, {}, {1}}}}}},
	}
	for name, tbl := range tables {
		body := marshalBody(t, tbl)
		got, ok := decodeTable(body)
		if !ok {
			t.Fatalf("%s: fast path declined a marshalled table", name)
		}
		var want OperatingPoints
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Table) {
			t.Fatalf("%s: fast path decoded %+v, json.Unmarshal %+v", name, got, want.Table)
		}
	}
}

// TestDecodedTableIsExactlySized pins the retained-memory properties of a
// decoded 764-point upload: the points have cap == len, and no point's
// Counts — nor any of its rows — can append into a neighbour's storage.
// opoint's TestDecodeStorageIsExactlySized pins the shared backings.
func TestDecodedTableIsExactlySized(t *testing.T) {
	raw := benchTable(t)
	env, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var up OperatingPoints
	if err := DecodeBody(env, MsgOperatingPoints, &up); err != nil {
		t.Fatal(err)
	}
	if want := table764(t); !reflect.DeepEqual(up.Table, want) {
		t.Fatal("decoded table differs from the uploaded one")
	}
	assertExactlySized(t, up.Table)
}

// assertExactlySized checks cap == len for the points, for each Counts and
// for each row, and that the vectors are consecutive windows of one [][]int
// and the rows consecutive windows of one []int, in point order.
func assertExactlySized(t testing.TB, tbl *opoint.Table) {
	t.Helper()
	if cap(tbl.Points) != len(tbl.Points) {
		t.Fatalf("points cap %d, len %d", cap(tbl.Points), len(tbl.Points))
	}
	// Addresses where the next non-empty Counts and row must start; Go's
	// heap does not move, so comparing them as integers is sound.
	var nextRow, nextInt uintptr
	for i, p := range tbl.Points {
		c := p.Vector.Counts
		if cap(c) != len(c) {
			t.Fatalf("point %d: Counts cap %d, len %d", i, cap(c), len(c))
		}
		if len(c) == 0 {
			continue
		}
		if at := uintptr(unsafe.Pointer(&c[0])); nextRow != 0 && at != nextRow {
			t.Fatalf("point %d: Counts is not the next window of the shared rows", i)
		}
		nextRow = uintptr(unsafe.Pointer(&c[0])) + uintptr(len(c))*unsafe.Sizeof(c[0])
		for k, r := range c {
			if cap(r) != len(r) {
				t.Fatalf("point %d kind %d: row cap %d, len %d", i, k, cap(r), len(r))
			}
			if len(r) == 0 {
				continue
			}
			if at := uintptr(unsafe.Pointer(&r[0])); nextInt != 0 && at != nextInt {
				t.Fatalf("point %d kind %d: row is not the next window of the shared ints", i, k)
			}
			nextInt = uintptr(unsafe.Pointer(&r[0])) + uintptr(len(r))*unsafe.Sizeof(r[0])
		}
	}
}

// TestDecodeTable764Allocs pins the fast path's allocation count for the
// real 764-point upload: a constant handful, against one per number array
// through encoding/json.
func TestDecodeTable764Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so the pooled scratch is reallocated")
	}
	raw := benchTable(t)
	r := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(raw)
		env, err := Read(r)
		if err != nil {
			t.Fatal(err)
		}
		var up OperatingPoints
		if err := DecodeBody(env, MsgOperatingPoints, &up); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Read + DecodeBody of the 764-point upload: %.0f allocations, want ≤ 16", allocs)
	}
}

// FuzzDecodeOperatingPoints holds the single-pass table decoder to
// json.Unmarshal: whenever the fast path accepts a body, json.Unmarshal
// accepts it too and decodes a deeply equal table, which is exactly sized.
func FuzzDecodeOperatingPoints(f *testing.F) {
	small := string(marshalBody(f, smallTable()))
	f.Add([]byte(small))
	f.Add(marshalBody(f, &opoint.Table{App: "a", Platform: "p"}))
	f.Add([]byte(`{"table":null}`))
	f.Add([]byte(`{"table":{"app":"a","platform":"p","points":[]}}`))
	one := `{"table":{"app":"a","platform":"p","points":[{"vector":{"counts":[[1,0],[2]]},"utility":1.5,"power":2,"measured":true,"samples":3}]}}`
	f.Add([]byte(one))
	for _, m := range [][2]string{
		{`"utility":1.5`, `"utility":+1`},
		{`"utility":1.5`, `"utility":1_0`},
		{`"utility":1.5`, `"utility":NaN`},
		{`"utility":1.5`, `"utility":0x1p-2`},
		{`"utility":1.5`, `"utility":01`},
		{`"utility":1.5`, `"utility":-`},
		{`"utility":1.5`, `"utility":1.`},
		{`"utility":1.5`, `"utility":.5`},
		{`"utility":1.5`, `"utility":1e`},
		{`"utility":1.5`, `"utility":1e400`},
		{`"utility":1.5`, `"utility":-0.0E-0`},
		{`"utility":1.5`, `"utility":null`},
		{`"utility":1.5`, `"utility":"1.5"`},
		{`"samples":3`, `"samples":99999999999999999999`},
		{`"samples":3`, `"samples":-9223372036854775808`},
		{`"samples":3`, `"samples":1.0`},
		{`"samples":3`, `"samples":1e2`},
		{`"samples":3`, `"samples":null`},
		{`[[1,0],[2]]`, `[[-],[2]]`},
		{`[[1,0],[2]]`, `[[01],[2]]`},
		{`[[1,0],[2]]`, `[[9223372036854775808],[2]]`},
		{`[[1,0],[2]]`, `[null,[2]]`},
		{`[[1,0],[2]]`, `null`},
		{`[[1,0],[2]]`, `[[],[]]`},
		{`[[1,0],[2]]`, `[[1, 0],[2]]`},
		{`"app":"a"`, `"app":"a"`},
		{`"app":"a"`, `"app":"a\"b"`},
		{`"app":"a"`, `"app":"\xff"`},
		{`"app":"a"`, `"app":"a` + "\x01" + `"`},
		{`"app":"a","platform":"p"`, `"platform":"p","app":"a"`},
		{`"app":"a"`, `"App":"a"`},
		{`"app":"a"`, `"app":"a","extra":1`},
		{`"app":"a"`, `"app":"a","app":"b"`},
		{`"utility":1.5`, `"utility":1.5,"utility":2`},
		{`"measured":true`, `"measured":false`},
		{`"measured":true`, `"measured":null`},
		{`"measured":true,"samples":3`, `"samples":3,"measured":true`},
		{`"points":[`, `"points":null,"x":[`},
		{`{"table":`, `{"table":null,"table":`},
		{`{"table":`, ` {"table":`},
	} {
		if !strings.Contains(one, m[0]) {
			f.Fatalf("seed mutation %q does not apply", m[0])
		}
		f.Add([]byte(strings.Replace(one, m[0], m[1], 1)))
	}
	f.Add([]byte(one + " "))
	f.Add([]byte(one[:len(one)-1]))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeTable(body)
		var want OperatingPoints
		err := json.Unmarshal(body, &want)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("fast path accepted a body json.Unmarshal rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want.Table) {
			t.Fatalf("fast path decoded %s, json.Unmarshal %s from %q", dump(got), dump(want.Table), body)
		}
		assertExactlySized(t, got)
	})
}

func dump(tbl *opoint.Table) string { return fmt.Sprintf("%#v", tbl) }
