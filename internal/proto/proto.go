// Package proto defines HARP's wire protocol between libharp and the
// resource manager (§4.1.1): length-prefixed JSON messages over Unix domain
// sockets. The paper uses protobuf; the protocol shape (registration,
// operating-point upload, activation pushes, utility polling) is preserved
// while the encoding stays stdlib-only.
//
// The codec does one write per frame out and one scan per frame in. Write
// marshals the body once and sends header and envelope in a single w.Write;
// WriteTable frames a table's JSON that the caller already holds. Read parses
// the envelope shape Write produces by hand. An operating-points upload in
// that shape is decoded right there, in a single pass into exactly sized
// storage (opoint.Decode), and DecodeBody hands the table over; any other
// body is validated with one json.Valid scan and copied out of the frame
// buffer. Any other shape falls back to encoding/json, which defines what
// decodes and how; the fast paths are held to it by differential fuzzers.
package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"unicode/utf8"

	"github.com/harp-rm/harp/internal/opoint"
)

// MaxFrame bounds one message on the wire; larger frames indicate a corrupt
// or hostile peer.
const MaxFrame = 4 << 20

// Common protocol errors.
var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
	// ErrUnknownType is returned when decoding a payload from an envelope of
	// a different type.
	ErrUnknownType = errors.New("proto: unexpected message type")
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol message types, in typical flow order (Fig. 3).
const (
	// MsgRegister: application → RM, upon libharp initialisation.
	MsgRegister MsgType = "register"
	// MsgRegisterAck: RM → application, accepting the session.
	MsgRegisterAck MsgType = "register-ack"
	// MsgOperatingPoints: application → RM, uploading a description file's
	// operating points.
	MsgOperatingPoints MsgType = "operating-points"
	// MsgActivate: RM → application, pushing the selected operating point
	// and concrete resources.
	MsgActivate MsgType = "activate"
	// MsgUtilityRequest: RM → application, polling the current utility.
	MsgUtilityRequest MsgType = "utility-request"
	// MsgUtilityReport: application → RM, answering a utility request or
	// pushing a subscribed update.
	MsgUtilityReport MsgType = "utility-report"
	// MsgExit: application → RM, graceful deregistration.
	MsgExit MsgType = "exit"
	// MsgPhaseChange: application → RM, announcing a transition between
	// execution stages with distinct performance-energy characteristics.
	// This implements the interface extension sketched in the paper's
	// outlook (§7): the RM discards smoothed state and re-evaluates the
	// allocation for the new phase.
	MsgPhaseChange MsgType = "phase-change"
	// MsgPing: RM → application, a liveness probe for sessions whose
	// reports went silent. libharp answers with MsgPong automatically.
	MsgPing MsgType = "ping"
	// MsgPong: application → RM, the heartbeat answer to MsgPing. Any
	// inbound message counts as liveness; pong exists for sessions with
	// nothing else to say.
	MsgPong MsgType = "pong"
)

// Envelope frames one message. Body is nil for an operating-points upload
// that Read decoded: its table rides in the envelope, and DecodeBody hands it
// over.
type Envelope struct {
	Type MsgType         `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`

	table *opoint.Table // the upload Read decoded, or nil
}

// Register announces an application to the RM.
type Register struct {
	// PID identifies the process on the machine.
	PID int `json:"pid"`
	// App is the application name (matched against description files).
	App string `json:"app"`
	// Adaptivity is the libharp adaptivity class: "static", "scalable" or
	// "custom" (§4.1.3).
	Adaptivity string `json:"adaptivity"`
	// OwnUtility indicates the application will report an app-specific
	// utility metric (§4.2.1).
	OwnUtility bool `json:"ownUtility,omitempty"`
	// ReplyAddr is the application's own socket for RM push messages.
	ReplyAddr string `json:"replyAddr,omitempty"`
}

// RegisterAck accepts or rejects a registration.
type RegisterAck struct {
	SessionID string `json:"sessionId"`
	OK        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
}

// OperatingPoints uploads an application description's points (§4.1.1
// step 2). The table travels by pointer: opoint.Table memoises its derived
// state behind atomic pointers and must not be copied by value.
type OperatingPoints struct {
	Table *opoint.Table `json:"table"`
}

// CoreGrant mirrors alloc.CoreGrant on the wire.
type CoreGrant struct {
	Core    int `json:"core"`
	Threads int `json:"threads"`
}

// Activate pushes an allocation decision to the application (§4.1.1
// step 3).
type Activate struct {
	// Seq orders activations; stale utility reports reference it.
	Seq int `json:"seq"`
	// VectorKey is the canonical key of the extended resource vector.
	VectorKey string `json:"vectorKey"`
	// Threads is the parallelisation degree for scalable applications.
	Threads int `json:"threads"`
	// Cores lists the concrete cores granted.
	Cores []CoreGrant `json:"cores"`
	// CoAllocated warns the application it is time-sharing cores.
	CoAllocated bool `json:"coAllocated,omitempty"`
}

// UtilityReport carries an application-specific utility sample (§4.1.1
// step 4).
type UtilityReport struct {
	Seq     int     `json:"seq"`
	Utility float64 `json:"utility"`
}

// PhaseChange announces an execution-stage transition (§7 outlook).
type PhaseChange struct {
	// Phase is an application-chosen label for the new stage.
	Phase string `json:"phase"`
}

// Write frames and writes one message: the 4-byte big-endian length, then
// {"type":<type>,"body":<body>} with "body" omitted for a nil body. The body
// is marshalled once, straight into an exactly sized frame buffer, and the
// frame goes out in one w.Write. The type must be valid UTF-8: JSON encoding
// silently replaces invalid bytes with U+FFFD, which would change the type in
// transit (found by FuzzWrite).
func Write(w io.Writer, typ MsgType, body any) error {
	if !utf8.ValidString(string(typ)) {
		return fmt.Errorf("proto: message type %q is not valid UTF-8", typ)
	}
	var raw []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("proto: marshal %s: %w", typ, err)
		}
		raw = b
	}
	return writeFrame(w, typ, raw)
}

// WriteTable writes an operating-points upload whose table the caller holds
// as JSON: the frame Write produces for OperatingPoints{Table: t} when table
// is what json.Marshal writes for t, as opoint.LoadRaw returns it. The bytes
// go out as they are, neither checked nor marshalled again, nor copied: on a
// net.Conn the frame's head, the table and the closing braces go out as one
// vectored write (net.Buffers, a single writev on a socket); any other
// writer gets the frame in one w.Write.
func WriteTable(w io.Writer, table []byte) error {
	conn, ok := w.(net.Conn)
	if !ok {
		return writeFrame(w, MsgOperatingPoints, []byte(tableKey), table, []byte("}"))
	}
	bodyLen := len(tableKey) + len(table) + 1
	head, err := frameHead(MsgOperatingPoints, bodyLen, len(tableKey))
	if err != nil {
		return err
	}
	bufs := net.Buffers{append(head, tableKey...), table, tableEnd}
	if _, err := bufs.WriteTo(conn); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// tableKey opens the JSON of an OperatingPoints body.
const tableKey = `{"table":`

// tableEnd closes an OperatingPoints body and its frame. It is only ever
// read: a vectored write advances its own slice headers, not the bytes.
var tableEnd = []byte("}}")

// writeFrame frames the body, the concatenation of parts, under typ and
// writes it in one w.Write; "body" is omitted when the parts are empty.
func writeFrame(w io.Writer, typ MsgType, parts ...[]byte) error {
	bodyLen := 0
	for _, p := range parts {
		bodyLen += len(p)
	}
	frame, err := frameHead(typ, bodyLen, bodyLen+1)
	if err != nil {
		return err
	}
	for _, p := range parts {
		frame = append(frame, p...)
	}
	frame = append(frame, '}')
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// frameHead returns the frame of a bodyLen-byte body under typ up to the
// body itself: the length prefix, the type and, when bodyLen > 0, the body
// key. The slice has room for extra more bytes.
func frameHead(typ MsgType, bodyLen, extra int) ([]byte, error) {
	// The type's JSON literal: quoted as is when it needs no escape, which
	// holds for every protocol type, else through the encoder.
	var quoted []byte
	typeLen := len(typ) + 2
	if !plainType(typ) {
		b, err := json.Marshal(string(typ))
		if err != nil {
			return nil, fmt.Errorf("proto: marshal envelope: %w", err)
		}
		quoted, typeLen = b, len(b)
	}
	const typeKey, bodyKey = `{"type":`, `,"body":`
	n := len(typeKey) + typeLen + 1
	if bodyLen > 0 {
		n += len(bodyKey) + bodyLen
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	frame := make([]byte, 4, 4+n-bodyLen-1+extra)
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame = append(frame, typeKey...)
	if quoted != nil {
		frame = append(frame, quoted...)
	} else {
		frame = append(frame, '"')
		frame = append(frame, typ...)
		frame = append(frame, '"')
	}
	if bodyLen > 0 {
		frame = append(frame, bodyKey...)
	}
	return frame, nil
}

// plainType reports whether json.Marshal quotes typ verbatim: printable
// ASCII without the characters it escapes.
func plainType(typ MsgType) bool {
	for i := 0; i < len(typ); i++ {
		if c := typ[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Read reads one framed message. io.EOF is returned verbatim on a clean
// close before the header. Each call allocates a fresh frame buffer; loops
// reading many messages from one connection should use a Reader instead.
func Read(r io.Reader) (Envelope, error) {
	var header [4]byte
	n, err := readHeader(r, header[:])
	if err != nil {
		return Envelope{}, err
	}
	buf := make([]byte, n)
	return readFrame(r, buf)
}

// Reader reads framed messages from a single connection, reusing one frame
// buffer across calls. Decoding is safe despite the reuse: nothing returned
// by Read aliases the buffer. A decoded upload's table lives in storage of
// its own, and any other Envelope.Body is copied out of the buffer (on the
// fallback path json.RawMessage's UnmarshalJSON makes that copy). A Reader
// is not safe for concurrent use — one per connection, like the read loop
// that owns it.
type Reader struct {
	r      io.Reader
	header [4]byte
	buf    []byte
}

// NewReader wraps r for buffer-reusing frame reads.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Read reads one framed message, like the package-level Read but without the
// per-frame buffer allocation once the buffer has grown to the connection's
// working frame size.
func (rd *Reader) Read() (Envelope, error) {
	n, err := readHeader(rd.r, rd.header[:])
	if err != nil {
		return Envelope{}, err
	}
	if cap(rd.buf) < int(n) {
		rd.buf = make([]byte, n)
	}
	return readFrame(rd.r, rd.buf[:n])
}

// readHeader reads and validates the 4-byte length prefix into header.
func readHeader(r io.Reader, header []byte) (uint32, error) {
	if _, err := io.ReadFull(r, header); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("proto: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(header)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// readFrame fills buf from r and decodes the envelope it holds: by hand for
// the shape Write produces, through encoding/json for anything else.
func readFrame(r io.Reader, buf []byte) (Envelope, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, fmt.Errorf("proto: read frame: %w", err)
	}
	env, ok := parseEnvelope(buf)
	if !ok {
		var fallback Envelope // declared here so only this path allocates it
		if err := json.Unmarshal(buf, &fallback); err != nil {
			return Envelope{}, fmt.Errorf("proto: decode envelope: %w", err)
		}
		env = fallback
	}
	if env.Type == "" {
		return Envelope{}, errors.New("proto: envelope without type")
	}
	return env, nil
}

// parseEnvelope decodes {"type":"<string>"} and {"type":"<string>","body":
// <value>} — exactly what Write produces for a type without escapes. The
// body of an operating-points upload goes to decodeTable first, and a table
// it takes rides in the envelope in place of Body: decoding is the body's
// validation, and nothing is copied. Every other body gets one json.Valid
// scan and is copied out of buf. ok is false for every other shape,
// including whitespace around the body; json.Unmarshal then decides, and on
// what parseEnvelope accepts the two agree (FuzzRead).
func parseEnvelope(buf []byte) (env Envelope, ok bool) {
	const typeKey, bodyKey = `{"type":"`, `,"body":`
	if !bytes.HasPrefix(buf, []byte(typeKey)) || buf[len(buf)-1] != '}' {
		return Envelope{}, false
	}
	rest := buf[len(typeKey):]
	end := plainStringEnd(rest)
	if end < 0 {
		return Envelope{}, false
	}
	env.Type = MsgType(rest[:end])
	rest = rest[end+1:]
	if len(rest) == 1 { // only the closing brace: a bodyless message
		return env, true
	}
	if !bytes.HasPrefix(rest, []byte(bodyKey)) {
		return Envelope{}, false
	}
	body := rest[len(bodyKey) : len(rest)-1]
	if env.Type == MsgOperatingPoints {
		if env.table, ok = decodeTable(body); ok {
			return env, true
		}
	}
	if len(body) == 0 || isSpace(body[0]) || isSpace(body[len(body)-1]) || !json.Valid(body) {
		return Envelope{}, false
	}
	env.Body = make(json.RawMessage, len(body))
	copy(env.Body, body)
	return env, true
}

// plainStringEnd returns the index of the quote closing the JSON string
// whose contents start b, or -1 when the string is unterminated, holds an
// escape or a control character, or is not valid UTF-8 (encoding/json would
// rewrite it).
func plainStringEnd(b []byte) int {
	for i, c := range b {
		switch {
		case c == '"':
			if !utf8.Valid(b[:i]) {
				return -1
			}
			return i
		case c == '\\' || c < 0x20:
			return -1
		}
	}
	return -1
}

// isSpace reports whether c is JSON insignificant whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// DecodeBody unmarshals an envelope's body into out after checking the type.
// An operating-points upload into an *OperatingPoints sets its Table to a
// fresh table and never writes the one it held, which its holder may have
// handed out: the table Read already decoded, else the single-pass
// decoder's (decodeTable), else json.Unmarshal's. An upload Read decoded
// goes into nothing else. Every other body goes through json.Unmarshal.
func DecodeBody(env Envelope, want MsgType, out any) error {
	if env.Type != want {
		return fmt.Errorf("%w: got %q, want %q", ErrUnknownType, env.Type, want)
	}
	if out == nil {
		return nil
	}
	up, isUpload := out.(*OperatingPoints)
	if env.table != nil {
		if !isUpload {
			return fmt.Errorf("proto: decode %s into %T: a decoded upload goes only into *OperatingPoints", want, out)
		}
		up.Table = env.table
		return nil
	}
	if len(env.Body) == 0 {
		return fmt.Errorf("proto: %s without body", want)
	}
	if isUpload {
		// A declined decode leaves Table nil, for json.Unmarshal to fill.
		var ok bool
		if up.Table, ok = decodeTable(env.Body); ok {
			return nil
		}
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("proto: decode %s: %w", want, err)
	}
	return nil
}

// decodeTable decodes an OperatingPoints body in one pass: {"table":T}, with
// T as opoint.Decode takes it. ok is false for anything else; the caller then
// decodes with json.Unmarshal, which also decides every error. On what
// decodeTable accepts the two agree (FuzzDecodeOperatingPoints).
func decodeTable(body []byte) (*opoint.Table, bool) {
	if !bytes.HasPrefix(body, []byte(tableKey)) || body[len(body)-1] != '}' {
		return nil, false
	}
	return opoint.Decode(body[len(tableKey) : len(body)-1])
}
