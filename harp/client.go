package harp

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/proto"
)

// ReconnectConfig opts a client into automatic session resumption: when the
// RM connection breaks (daemon restart, dropped socket), the client re-dials
// with exponential backoff plus jitter, re-registers, re-uploads its
// operating-point table and replays its current phase — transparently to
// OnActivate consumers, which simply observe a fresh Activation.
type ReconnectConfig struct {
	// Enabled turns auto-reconnect on.
	Enabled bool
	// InitialBackoff is the first retry delay (0 = 50 ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 2 s).
	MaxBackoff time.Duration
	// Multiplier grows the delay between attempts (0 = 2.0).
	Multiplier float64
	// Jitter is the ± fraction of randomisation applied to each delay
	// (0 = 0.2; negative disables jitter entirely).
	Jitter float64
	// MaxAttempts bounds consecutive failed attempts before the client
	// gives up and closes Done with the last error (0 = unlimited).
	MaxAttempts int
	// Seed drives the jitter for reproducible backoff sequences in tests
	// (0 seeds from the clock).
	Seed int64
	// AddressProvider, when set, is consulted before every reconnect
	// attempt and may return a new RM socket path to dial — the fleet
	// redirect hook: after a session migration or coordinator failover the
	// provider (typically backed by a cluster control endpoint) points the
	// client at its new machine. An empty return keeps the current path.
	// Nil preserves the classic fixed-address behaviour exactly.
	AddressProvider func() string
}

func (rc ReconnectConfig) withDefaults() ReconnectConfig {
	if rc.InitialBackoff == 0 {
		rc.InitialBackoff = 50 * time.Millisecond
	}
	if rc.MaxBackoff == 0 {
		rc.MaxBackoff = 2 * time.Second
	}
	if rc.Multiplier == 0 {
		rc.Multiplier = 2.0
	}
	if rc.Jitter == 0 {
		rc.Jitter = 0.2
	}
	if rc.Seed == 0 {
		rc.Seed = time.Now().UnixNano()
	}
	return rc
}

// Registration describes the application to the resource manager (§4.1.1
// step 1).
type Registration struct {
	// App is the application name, matched against description files.
	App string
	// PID identifies the process; 0 uses os.Getpid().
	PID int
	// Adaptivity is the application's adaptivity class.
	Adaptivity Adaptivity
	// OwnUtility announces that the application will report its own utility
	// metric via ReportUtility (§4.2.1).
	OwnUtility bool
	// OnActivate is invoked (from the client's reader goroutine) for every
	// allocation decision pushed by the RM. libharp's built-in adapters
	// call runtime hooks here; custom applications install their own
	// callbacks (§4.1.4).
	OnActivate func(Activation)
	// OnUtilityRequest, when set, answers the RM's periodic utility polls
	// (§4.1.1 step 4) with the application's current utility metric. Only
	// meaningful together with OwnUtility; applications may instead push
	// updates proactively via ReportUtility.
	OnUtilityRequest func() float64
	// Reconnect opts into automatic session resumption across RM restarts.
	Reconnect ReconnectConfig
	// WriteTimeout bounds each framed write to the RM, so a wedged daemon
	// cannot block ReportUtility or Close forever (0 = 2 s, negative = no
	// deadline).
	WriteTimeout time.Duration
}

// ErrRegistrationRejected is returned by Dial when the RM refuses the
// session.
var ErrRegistrationRejected = errors.New("harp: registration rejected")

// Client is a libharp session with the resource manager.
type Client struct {
	reg Registration

	writeMu sync.Mutex

	onActivate func(Activation)
	onUtility  func() float64

	mu         sync.Mutex
	socketPath string // current RM address; AddressProvider may move it
	conn       net.Conn
	session    string
	activation *Activation
	lastTable  *opoint.Table
	lastPhase  string
	closing    bool
	err        error

	stopOnce sync.Once
	closec   chan struct{} // closed by Close to abort backoff sleeps
	done     chan struct{}
}

// Dial connects to the RM's Unix socket and registers the application. It
// blocks until the RM acknowledges the registration.
func Dial(socketPath string, reg Registration) (*Client, error) {
	if reg.App == "" {
		return nil, errors.New("harp: registration without application name")
	}
	if !reg.Adaptivity.Valid() {
		return nil, fmt.Errorf("harp: invalid adaptivity %q", reg.Adaptivity)
	}
	if reg.PID == 0 {
		reg.PID = os.Getpid()
	}
	if reg.WriteTimeout == 0 {
		reg.WriteTimeout = 2 * time.Second
	}
	if reg.Reconnect.Enabled {
		reg.Reconnect = reg.Reconnect.withDefaults()
	}
	c := &Client{
		socketPath: socketPath,
		reg:        reg,
		onActivate: reg.OnActivate,
		onUtility:  reg.OnUtilityRequest,
		closec:     make(chan struct{}),
		done:       make(chan struct{}),
	}
	conn, session, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.session = session
	go c.run()
	return c, nil
}

// handshake dials the current socket path and performs the registration
// exchange.
func (c *Client) handshake() (net.Conn, string, error) {
	c.mu.Lock()
	path := c.socketPath
	c.mu.Unlock()
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, "", fmt.Errorf("harp: dial RM: %w", err)
	}
	if d := c.reg.WriteTimeout; d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
	err = proto.Write(conn, proto.MsgRegister, proto.Register{
		PID:        c.reg.PID,
		App:        c.reg.App,
		Adaptivity: string(c.reg.Adaptivity),
		OwnUtility: c.reg.OwnUtility,
	})
	_ = conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, "", err
	}
	env, err := proto.Read(conn)
	if err != nil {
		conn.Close()
		return nil, "", fmt.Errorf("harp: waiting for registration ack: %w", err)
	}
	var ack proto.RegisterAck
	if err := proto.DecodeBody(env, proto.MsgRegisterAck, &ack); err != nil {
		conn.Close()
		return nil, "", err
	}
	if !ack.OK {
		conn.Close()
		return nil, "", fmt.Errorf("%w: %s", ErrRegistrationRejected, ack.Error)
	}
	return conn, ack.SessionID, nil
}

// SessionID returns the RM-assigned session identifier.
func (c *Client) SessionID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Activation returns the most recent allocation decision, if any.
func (c *Client) Activation() (Activation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.activation == nil {
		return Activation{}, false
	}
	return *c.activation, true
}

// UploadDescription sends an application description file's operating
// points to the RM (§4.1.1 step 2). The reader must yield the JSON format of
// opoint.Table. A description in the shape json.Marshal or json.Encoder
// writes goes out as the bytes read, which decoding it has validated; any
// other is marshalled from its decoded table. The table is remembered so an
// auto-reconnecting client can re-upload it when resuming the session.
func (c *Client) UploadDescription(r io.Reader) error {
	tbl, raw, err := opoint.LoadRaw(r)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.lastTable = tbl
	c.mu.Unlock()
	if raw != nil {
		return c.send(func(w io.Writer) error { return proto.WriteTable(w, raw) })
	}
	return c.write(proto.MsgOperatingPoints, proto.OperatingPoints{Table: tbl})
}

// UploadDescriptionFile sends the description at path.
func (c *Client) UploadDescriptionFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("harp: %w", err)
	}
	defer f.Close()
	return c.UploadDescription(f)
}

// ReportUtility pushes an application-specific utility sample (§4.1.1
// step 4). Only meaningful for sessions registered with OwnUtility.
func (c *Client) ReportUtility(utility float64) error {
	seq := 0
	if act, ok := c.Activation(); ok {
		seq = act.Seq
	}
	return c.write(proto.MsgUtilityReport, proto.UtilityReport{Seq: seq, Utility: utility})
}

// NotifyPhase announces a transition to a new execution stage with distinct
// performance-energy characteristics — the interface extension from the
// paper's outlook (§7). The RM discards stale smoothed state and reassesses
// the allocation for the new phase. The phase is remembered so an
// auto-reconnecting client replays it when resuming the session.
func (c *Client) NotifyPhase(phase string) error {
	c.mu.Lock()
	c.lastPhase = phase
	c.mu.Unlock()
	return c.write(proto.MsgPhaseChange, proto.PhaseChange{Phase: phase})
}

// Close deregisters gracefully and releases the connection. It always
// succeeds: a failed MsgExit write means the RM is already gone, which is
// exactly the outcome a graceful close wants.
func (c *Client) Close() error {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		conn := c.conn
		c.mu.Unlock()
		close(c.closec)
		_ = c.write(proto.MsgExit, nil)
		conn.Close()
		<-c.done
	})
	return nil
}

// Done is closed when the session permanently ends: graceful Close, a broken
// connection with reconnect disabled, or exhausted reconnect attempts.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the session's termination cause once Done is closed: nil after
// a graceful Close, the connection error when the RM went away and reconnect
// was off, or the last reconnect failure when resumption gave up.
func (c *Client) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) write(typ proto.MsgType, body any) error {
	return c.send(func(w io.Writer) error { return proto.Write(w, typ, body) })
}

// send runs one frame writer against the current connection, under the
// write lock and the WriteTimeout deadline.
func (c *Client) send(frame func(io.Writer) error) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if d := c.reg.WriteTimeout; d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return frame(conn)
}

// run owns the client's lifecycle: it reads RM pushes off the current
// connection and, when the connection breaks, either resumes the session
// (reconnect enabled) or terminates with the cause recorded for Err.
func (c *Client) run() {
	defer close(c.done)
	for {
		readErr := c.readConn()
		c.mu.Lock()
		closing := c.closing
		c.mu.Unlock()
		if closing {
			return // graceful close: Err stays nil
		}
		if !c.reg.Reconnect.Enabled {
			c.setErr(readErr)
			return
		}
		if err := c.resume(); err != nil {
			c.setErr(fmt.Errorf("harp: session lost (%v); reconnect gave up: %w", readErr, err))
			return
		}
	}
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// resume re-establishes the session with exponential backoff plus jitter:
// re-dial, re-register, re-upload the operating-point table, replay the
// current phase. A duplicate-session rejection simply retries — the RM's
// liveness reaper has not collected the half-dead predecessor yet.
func (c *Client) resume() error {
	rc := c.reg.Reconnect
	rng := rand.New(rand.NewSource(rc.Seed))
	backoff := rc.InitialBackoff
	var lastErr error
	for attempt := 0; rc.MaxAttempts == 0 || attempt < rc.MaxAttempts; attempt++ {
		// Ask the address provider where the session lives now — a fleet
		// may have migrated it or failed the coordinator over since the
		// connection broke.
		if rc.AddressProvider != nil {
			if addr := rc.AddressProvider(); addr != "" {
				c.mu.Lock()
				c.socketPath = addr
				c.mu.Unlock()
			}
		}
		delay := backoff
		if rc.Jitter > 0 {
			f := 1 + rc.Jitter*(2*rng.Float64()-1)
			delay = time.Duration(float64(delay) * f)
		}
		select {
		case <-time.After(delay):
		case <-c.closec:
			return errors.New("harp: client closed")
		}
		backoff = time.Duration(float64(backoff) * rc.Multiplier)
		if backoff > rc.MaxBackoff {
			backoff = rc.MaxBackoff
		}

		conn, session, err := c.handshake()
		if err != nil {
			lastErr = err
			continue
		}

		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			conn.Close()
			return errors.New("harp: client closed")
		}
		c.conn = conn
		c.session = session
		tbl := c.lastTable
		phase := c.lastPhase
		c.mu.Unlock()

		// Replay session state. Failures here mean the fresh connection
		// already broke; loop around and try again.
		if tbl != nil {
			if err := c.write(proto.MsgOperatingPoints, proto.OperatingPoints{Table: tbl}); err != nil {
				lastErr = err
				conn.Close()
				continue
			}
		}
		if phase != "" {
			if err := c.write(proto.MsgPhaseChange, proto.PhaseChange{Phase: phase}); err != nil {
				lastErr = err
				conn.Close()
				continue
			}
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("harp: no reconnect attempts permitted")
	}
	return lastErr
}

// readConn handles RM pushes until the current connection ends, returning
// the read error that ended it.
func (c *Client) readConn() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	rd := proto.NewReader(conn) // reuse one frame buffer for the push stream
	for {
		env, err := rd.Read()
		if err != nil {
			return err
		}
		switch env.Type {
		case proto.MsgActivate:
			var act proto.Activate
			if err := proto.DecodeBody(env, proto.MsgActivate, &act); err != nil {
				continue
			}
			pub := Activation{
				Seq:         act.Seq,
				VectorKey:   act.VectorKey,
				Threads:     act.Threads,
				CoAllocated: act.CoAllocated,
			}
			for _, g := range act.Cores {
				pub.Cores = append(pub.Cores, CoreGrant{Core: g.Core, Threads: g.Threads})
			}
			c.mu.Lock()
			c.activation = &pub
			c.mu.Unlock()
			if c.onActivate != nil {
				c.onActivate(pub)
			}
		case proto.MsgUtilityRequest:
			// Answer the RM's poll with the application's current utility
			// (§4.1.1 step 4). Without a callback the poll is ignored; the
			// application may still push reports proactively.
			if c.onUtility != nil {
				_ = c.ReportUtility(c.onUtility())
			}
		case proto.MsgPing:
			// Liveness probe: answer so the RM knows the session is alive
			// even when the application has nothing to report.
			_ = c.write(proto.MsgPong, nil)
		default:
		}
	}
}
