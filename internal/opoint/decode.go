package opoint

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// span is a half-open range [lo, hi) of a tableDecoder scratch slice; a
// negative lo stands for a JSON null.
type span struct{ lo, hi int }

var nullSpan = span{-1, -1}

// tableDecoder is the state of one Decode call. Its scratch slices are
// pooled, so their growth is paid once per process rather than per table,
// and they never hold a pointer into a decoded table.
type tableDecoder struct {
	b []byte // the input being decoded
	i int    // read position in b

	pts  []OperatingPoint // decoded points, Vector left empty
	vecs []span           // per point: its rows in rows
	rows []span           // per row: its cells in ints
	ints []int
}

var decoderPool = sync.Pool{New: func() any { return new(tableDecoder) }}

// Decode decodes one table in a single pass, accepting only the shape
// json.Marshal produces for one:
//
//	{"app":S,"platform":S,"points":null|[P,…]}
//	P = {"vector":{"counts":null|[null|[I,…],…]},"utility":N,"power":N[,"measured":B][,"samples":I]}
//
// with nothing before or after it (Load trims trailing whitespace first, so
// json.Encoder output takes this path too), strings free of escapes and
// control characters, and numbers in the strict JSON grammar, parsed as
// encoding/json parses them. The points, the rows and the ints of the table
// each live in one allocation of exactly the decoded length, and every row
// and Counts slice has its capacity clipped, so an append to one cannot
// reach its neighbour and no slack stays resident with a table that is
// kept. ok is false for anything else; the caller then decodes with
// encoding/json, which also decides every error. On what Decode accepts the
// two agree (FuzzLoad, and proto's FuzzDecodeOperatingPoints).
func Decode(b []byte) (t *Table, ok bool) {
	d := decoderPool.Get().(*tableDecoder)
	d.b, d.i = b, 0
	d.pts, d.vecs, d.rows, d.ints = d.pts[:0], d.vecs[:0], d.rows[:0], d.ints[:0]
	if app, plat, nullPoints, ok := d.table(); ok {
		t = d.build(app, plat, nullPoints)
	}
	d.b = nil
	decoderPool.Put(d)
	return t, t != nil
}

// table parses the whole input, leaving the points in the scratch slices.
func (d *tableDecoder) table() (app, plat []byte, nullPoints, ok bool) {
	if !d.lit(`{"app":"`) {
		return nil, nil, false, false
	}
	if app, ok = d.str(); !ok || !d.lit(`,"platform":"`) {
		return nil, nil, false, false
	}
	if plat, ok = d.str(); !ok || !d.lit(`,"points":`) {
		return nil, nil, false, false
	}
	nullPoints = d.lit("null")
	if !nullPoints && !d.list(d.point) {
		return nil, nil, false, false
	}
	if !d.lit("}") || d.i != len(d.b) {
		return nil, nil, false, false
	}
	return app, plat, nullPoints, true
}

// build makes the table from the scratch.
func (d *tableDecoder) build(app, plat []byte, nullPoints bool) *Table {
	t := &Table{App: string(app), Platform: string(plat)}
	if !nullPoints {
		t.Points, _, _ = d.storage()
	}
	return t
}

// storage copies the scratch into exactly sized points, rows and ints. Each
// point's Counts slices rows and each row slices ints, capacity clipped.
func (d *tableDecoder) storage() (points []OperatingPoint, rows [][]int, ints []int) {
	ints = make([]int, len(d.ints))
	copy(ints, d.ints)
	rows = make([][]int, len(d.rows))
	for i, r := range d.rows {
		if r.lo >= 0 {
			rows[i] = ints[r.lo:r.hi:r.hi]
		}
	}
	points = make([]OperatingPoint, len(d.pts))
	copy(points, d.pts)
	for i, v := range d.vecs {
		if v.lo >= 0 {
			points[i].Vector.Counts = rows[v.lo:v.hi:v.hi]
		}
	}
	return points, rows, ints
}

// point parses one operating point.
func (d *tableDecoder) point() bool {
	if !d.lit(`{"vector":{"counts":`) {
		return false
	}
	vec := nullSpan
	if !d.lit("null") {
		vec.lo = len(d.rows)
		if !d.list(d.row) {
			return false
		}
		vec.hi = len(d.rows)
	}
	var op OperatingPoint
	var ok bool
	if !d.lit(`},"utility":`) {
		return false
	}
	if op.Utility, ok = d.float(); !ok || !d.lit(`,"power":`) {
		return false
	}
	if op.Power, ok = d.float(); !ok {
		return false
	}
	if d.lit(`,"measured":`) {
		switch {
		case d.lit("true"):
			op.Measured = true
		case d.lit("false"):
		default:
			return false
		}
	}
	if d.lit(`,"samples":`) {
		if op.Samples, ok = d.integer(); !ok {
			return false
		}
	}
	if !d.lit("}") {
		return false
	}
	d.pts = append(d.pts, op)
	d.vecs = append(d.vecs, vec)
	return true
}

// row parses one per-kind slot list of a resource vector.
func (d *tableDecoder) row() bool {
	r := nullSpan
	if !d.lit("null") {
		r.lo = len(d.ints)
		if !d.list(d.cell) {
			return false
		}
		r.hi = len(d.ints)
	}
	d.rows = append(d.rows, r)
	return true
}

// cell parses one core count.
func (d *tableDecoder) cell() bool {
	n, ok := d.integer()
	d.ints = append(d.ints, n)
	return ok
}

// list parses a JSON array, calling elem for each element.
func (d *tableDecoder) list(elem func() bool) bool {
	if !d.lit("[") {
		return false
	}
	if d.lit("]") {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.lit("]") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}

// lit consumes s if the input continues with it.
func (d *tableDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str consumes the rest of a string whose opening quote lit already took,
// returning its contents: only a string encoding/json would not rewrite,
// without escapes or control characters and valid UTF-8.
func (d *tableDecoder) str() ([]byte, bool) {
	for i, c := range d.b[d.i:] {
		switch {
		case c == '"':
			s := d.b[d.i : d.i+i]
			if !utf8.Valid(s) {
				return nil, false
			}
			d.i += i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// float consumes a number and parses it as encoding/json parses a float64.
func (d *tableDecoder) float() (float64, bool) {
	num, _, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// integer consumes an integer literal as encoding/json parses an int: a
// fraction, an exponent or overflow declines.
func (d *tableDecoder) integer() (int, bool) {
	_, n, isInt, ok := d.number()
	return n, ok && isInt
}

// number consumes a number in the strict JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its text. When
// it is an integer literal, without fraction or exponent, whose value fits
// an int, isInt is true and n is that value, summed up from the digits as
// the scan passes them.
func (d *tableDecoder) number() (num []byte, n int, isInt, ok bool) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// limit is the largest magnitude an int holds with this sign.
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var mag uint64
	isInt = true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			digit := uint64(b[i] - '0')
			if mag > (limit-digit)/10 {
				isInt = false // overflow: keep scanning, decline as an int
			} else {
				mag = mag*10 + digit
			}
		}
	default:
		return nil, 0, false, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, 0, false, false
		}
		i, isInt = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, 0, false, false
		}
		i, isInt = j, false
	}
	num, d.i = b[d.i:i], i
	if !isInt {
		return num, 0, false, true
	}
	n = int(mag)
	if neg {
		n = -n // for math.MinInt, int(mag) wraps to it and negation keeps it
	}
	return num, n, true, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
