// Package proto defines HARP's wire protocol between libharp and the
// resource manager (§4.1.1): length-prefixed JSON messages over Unix domain
// sockets. The paper uses protobuf; the protocol shape (registration,
// operating-point upload, activation pushes, utility polling) is preserved
// while the encoding stays stdlib-only.
package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Envelope frames one message.
type Envelope struct {
	Type MsgType         `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
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

// Write frames and writes one message. The type must be valid UTF-8: JSON
// encoding silently replaces invalid bytes with U+FFFD, which would change
// the type in transit (found by FuzzWrite).
func Write(w io.Writer, typ MsgType, body any) error {
	if !utf8.ValidString(string(typ)) {
		return fmt.Errorf("proto: message type %q is not valid UTF-8", typ)
	}
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("proto: marshal %s: %w", typ, err)
		}
		raw = b
	}
	frame, err := json.Marshal(Envelope{Type: typ, Body: raw})
	if err != nil {
		return fmt.Errorf("proto: marshal envelope: %w", err)
	}
	if len(frame) > MaxFrame {
		return ErrFrameTooLarge
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(frame)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("proto: write frame: %w", err)
	}
	return nil
}

// Read reads one framed message. io.EOF is returned verbatim on a clean
// close before the header. Each call allocates a fresh frame buffer; loops
// reading many messages from one connection should use a Reader instead.
func Read(r io.Reader) (Envelope, error) {
	n, err := readHeader(r)
	if err != nil {
		return Envelope{}, err
	}
	buf := make([]byte, n)
	return readFrame(r, buf)
}

// Reader reads framed messages from a single connection, reusing one frame
// buffer across calls. Decoding is safe despite the reuse: Envelope.Body is
// a json.RawMessage, whose UnmarshalJSON copies the bytes out of the frame
// buffer, so nothing returned by Read aliases it. A Reader is not safe for
// concurrent use — one per connection, like the read loop that owns it.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader wraps r for buffer-reusing frame reads.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Read reads one framed message, like the package-level Read but without the
// per-frame buffer allocation once the buffer has grown to the connection's
// working frame size.
func (rd *Reader) Read() (Envelope, error) {
	n, err := readHeader(rd.r)
	if err != nil {
		return Envelope{}, err
	}
	if cap(rd.buf) < int(n) {
		rd.buf = make([]byte, n)
	}
	return readFrame(rd.r, rd.buf[:n])
}

// readHeader reads and validates the 4-byte length prefix.
func readHeader(r io.Reader) (uint32, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("proto: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(header[:])
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// readFrame fills buf from r and decodes the envelope it holds.
func readFrame(r io.Reader, buf []byte) (Envelope, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, fmt.Errorf("proto: read frame: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return Envelope{}, fmt.Errorf("proto: decode envelope: %w", err)
	}
	if env.Type == "" {
		return Envelope{}, errors.New("proto: envelope without type")
	}
	return env, nil
}

// DecodeBody unmarshals an envelope's body into out after checking the type.
func DecodeBody(env Envelope, want MsgType, out any) error {
	if env.Type != want {
		return fmt.Errorf("%w: got %q, want %q", ErrUnknownType, env.Type, want)
	}
	if out == nil {
		return nil
	}
	if len(env.Body) == 0 {
		return fmt.Errorf("proto: %s without body", want)
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		return fmt.Errorf("proto: decode %s: %w", want, err)
	}
	return nil
}
