package harp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
)

// DefaultMeasureEvery is the monitoring cadence (§5.3: 50 ms).
const DefaultMeasureEvery = 50 * time.Millisecond

// DefaultWriteTimeout bounds one framed write to a session connection, so a
// stuck client cannot wedge the decision-push path.
const DefaultWriteTimeout = 2 * time.Second

// maxProbeFailures is how many consecutive failed writes (decision pushes,
// utility polls or liveness pings) reap a session ahead of its silence
// deadline: the connection is demonstrably broken, not merely quiet.
const maxProbeFailures = 3

// Sampler supplies per-application utility and power measurements for
// sessions that do not report their own utility. A production deployment
// backs this with Linux perf (IPS) and RAPL-based attribution; tests and
// experiments back it with the simulator.
type Sampler interface {
	// Sample returns the application's current utility (e.g. IPS) and the
	// power attributed to it, identified by the PID it registered with.
	Sample(pid int) (utility, power float64, err error)
}

// ServerConfig configures a resource-manager server.
type ServerConfig struct {
	// Platform is the hardware description (required). Deployments load it
	// from the description file in ConfigDir; embedders may pass one of the
	// built-ins via LoadPlatform.
	Platform *platform.Platform
	// ConfigDir optionally points at a /etc/harp-style directory: a
	// hardware.json description and an opoints/ directory of application
	// description files (§4.3).
	ConfigDir string
	// DisableExploration turns off online exploration (mandatory on
	// platforms without simultaneous PMU access).
	DisableExploration bool
	// Sampler supplies measurements; nil means only self-reported utility
	// drives learning (power-less sessions never leave the initial stage,
	// so offline tables become the only knowledge source).
	Sampler Sampler
	// MeasureEvery overrides the monitoring cadence (0 = 50 ms).
	MeasureEvery time.Duration
	// Explore tunes the runtime exploration engine.
	Explore explore.Config
	// Tracer receives structured adaptation-loop events (nil disables
	// tracing). Timestamps are wall time since server creation.
	Tracer *telemetry.Tracer
	// Journal records one JSONL epoch per decision batch (nil disables).
	Journal *telemetry.Journal
	// Metrics receives the adaptation-loop instruments, including the
	// allocation-latency and measure-loop-jitter histograms (nil disables).
	Metrics *telemetry.Metrics
	// Energy accumulates per-session and fleet joules from the measure loop
	// (nil disables energy accounting). The server rebinds the ledger's
	// clock to wall time since server creation — the same base as the
	// tracer — and persists it in the StateDir so joules survive restarts.
	Energy *telemetry.EnergyLedger
	// Liveness sets the silence deadlines for the suspect → quarantine →
	// reap escalation. The zero value disables liveness tracking: sessions
	// then end only on exit or reader EOF (the pre-resilience behaviour).
	// See core.DefaultLivenessPolicy for sensible deadlines.
	Liveness core.LivenessPolicy
	// WriteTimeout bounds each framed write to a session connection
	// (0 = DefaultWriteTimeout, negative = no deadline).
	WriteTimeout time.Duration
	// Allocator overrides the manager's MMKP solver (nil builds the default
	// Lagrangian allocator). Correctness tests inject failing solvers to
	// verify errors surface in the journal instead of becoming decisions.
	Allocator core.Allocator
	// StateDir, when non-empty, makes the server durable: learned state is
	// recovered from the directory's snapshot + WAL at startup (warm
	// restart), every mutating operation is WAL-logged, and Close writes a
	// final snapshot. Empty disables persistence (the pre-durability
	// behaviour). See RESILIENCE.md, "Warm restart".
	StateDir string
	// MaxSessions caps concurrently registered sessions (0 = unlimited).
	// Over-cap registrations are acked with core.ErrTooManySessions.
	MaxSessions int
	// AllocWarmStart seeds each solve's subgradient iteration from the
	// previous epoch's λ vector (fewer iterations on perturbed inputs; see
	// PERFORMANCE.md). Ignored when Allocator is set.
	AllocWarmStart bool
	// EpochBudget bounds each epoch's solve on the wall clock: past the
	// budget the subgradient loop cuts off early and, if the solve still
	// cannot complete, the manager walks the degradation ladder (see
	// RESILIENCE.md, "Overload and the degradation ladder"). 0 selects
	// core.DefaultEpochBudget; negative disables the deadline.
	EpochBudget time.Duration
}

// LoadPlatform resolves a platform: a built-in name ("intel", "odroid", …)
// or a path to a hardware description file.
func LoadPlatform(nameOrPath string) (*platform.Platform, error) {
	if p := platform.Builtin(nameOrPath); p != nil {
		return p, nil
	}
	return platform.LoadFile(nameOrPath)
}

// serverSession tracks one connected application.
type serverSession struct {
	instance string
	pid      int
	own      bool

	mu          sync.Mutex // guards conn writes and the liveness fields
	conn        net.Conn
	lastUtility float64
	hasUtility  bool
	lastReport  time.Time

	// Liveness bookkeeping: lastSeen is bumped by every inbound message,
	// probeFails counts consecutive failed writes, and forceSuspect pins the
	// session in the suspect state for the reaper after a failed utility
	// poll or decision push (cleared by inbound traffic).
	lastSeen     time.Time
	probeFails   int
	forceSuspect bool

	// Decisions pushed before the registration ack has been written are
	// buffered so the client always sees the ack first.
	ready   bool
	pending *proto.Activate
}

// alive records inbound traffic: the peer is demonstrably there, so failed
// probes and forced suspicion are forgotten.
func (sess *serverSession) alive(now time.Time) {
	sess.mu.Lock()
	sess.lastSeen = now
	sess.probeFails = 0
	sess.forceSuspect = false
	sess.mu.Unlock()
}

// Server is the HARP resource manager daemon: it accepts libharp
// registrations on a Unix socket, runs the allocation and exploration logic,
// and pushes activation decisions back to the applications.
type Server struct {
	cfg   ServerConfig
	start time.Time

	mu       sync.Mutex
	mgr      *core.Manager
	sessions map[string]*serverSession
	store    *store.Store // nil without StateDir

	ln      net.Listener
	conns   map[net.Conn]struct{}
	stop    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
	serving bool
}

// NewServer creates a server. The configuration directory, when given, is
// read once at startup.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, errors.New("harp: server config without platform")
	}
	if cfg.MeasureEvery == 0 {
		cfg.MeasureEvery = DefaultMeasureEvery
	}
	if err := cfg.Liveness.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	var offline map[string]*opoint.Table
	if cfg.ConfigDir != "" {
		var err error
		offline, err = opoint.LoadDir(filepath.Join(cfg.ConfigDir, "opoints"))
		if err != nil {
			return nil, err
		}
		for app, tbl := range offline {
			if err := tbl.Validate(cfg.Platform); err != nil {
				return nil, fmt.Errorf("harp: description for %s: %w", app, err)
			}
		}
	}
	var st *store.Store
	if cfg.StateDir != "" {
		var err error
		st, err = store.Open(cfg.StateDir, store.Options{Metrics: cfg.Metrics, Tracer: cfg.Tracer})
		if err != nil {
			return nil, fmt.Errorf("harp: open state dir: %w", err)
		}
	}
	start := time.Now()
	cfg.Energy.SetClock(func() time.Duration { return time.Since(start) })
	if mt := cfg.Metrics; mt != nil {
		cfg.Tracer.CountDrops(mt.TracerDropped)
		cfg.Journal.CountErrors(mt.JournalErrors)
	}
	coreCfg := core.Config{
		Platform:           cfg.Platform,
		Allocator:          cfg.Allocator,
		Explore:            cfg.Explore,
		OfflineTables:      offline,
		DisableExploration: cfg.DisableExploration,
		Tracer:             cfg.Tracer,
		Journal:            cfg.Journal,
		Metrics:            cfg.Metrics,
		Energy:             cfg.Energy,
		MaxSessions:        cfg.MaxSessions,
		AllocWarmStart:     cfg.AllocWarmStart,
		EpochBudget:        cfg.EpochBudget,
		LatencyClock:       func() time.Duration { return time.Since(start) },
	}
	if st != nil {
		// Assigned only when non-nil: a typed-nil *store.Store in the
		// interface field would defeat the Manager's nil check.
		coreCfg.Store = st
	}
	mgr, err := core.NewManager(coreCfg)
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, err
	}
	if st != nil {
		if err := mgr.ImportState(st.RecoveredState(), st.Recovery()); err != nil {
			_ = st.Close()
			return nil, fmt.Errorf("harp: replay recovered state: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		start:    start,
		mgr:      mgr,
		sessions: make(map[string]*serverSession),
		store:    st,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	mgr.OnDecision(s.pushDecision)
	return s, nil
}

// ListenAndServe binds the Unix socket at path and serves until Close. A
// stale socket file is removed first.
func (s *Server) ListenAndServe(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("harp: remove stale socket: %w", err)
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return fmt.Errorf("harp: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("harp: server closed")
	}
	if s.serving {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("harp: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	s.mu.Unlock()

	go s.measureLoop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return fmt.Errorf("harp: accept: %w", err)
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue // Accept will fail next; the closed listener ends the loop
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// Close shuts the server down and waits for the measure loop and all
// connection handlers to finish. Session connections are force-closed so
// handlers blocked in reads terminate; Close before (or without) Serve
// returns immediately. With a StateDir, the final snapshot is written only
// after every handler and the measure loop have stopped — i.e. after the
// last journalled epoch — then the store is released.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	serving := s.serving
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.stop)
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	if serving {
		<-s.done
	}
	var err error
	s.mu.Lock()
	if s.store != nil {
		err = s.mgr.SnapshotTo(s.store)
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	s.mu.Unlock()
	return err
}

// Sessions returns the registered sessions' summaries (for harpctl), with
// each session's last-report age overlaid from the connection bookkeeping.
func (s *Server) Sessions() []core.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsLocked()
}

// sessionsLocked is Sessions for callers holding s.mu.
func (s *Server) sessionsLocked() []core.SessionInfo {
	infos := s.mgr.Sessions()
	now := time.Now()
	for i := range infos {
		sess, ok := s.sessions[infos[i].Instance]
		if !ok {
			continue
		}
		sess.mu.Lock()
		infos[i].LastReportAgeSec = now.Sub(sess.lastSeen).Seconds()
		sess.mu.Unlock()
	}
	return infos
}

// TableSnapshot returns a session's operating-point table (for harpctl).
func (s *Server) TableSnapshot(instance string) (*opoint.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mgr.Table(instance)
}

// Generation returns the store generation — how many times this state
// directory has been opened, i.e. which incarnation of the RM this is.
// Zero without a StateDir.
func (s *Server) Generation() uint64 {
	if s.store == nil {
		return 0
	}
	return s.store.Generation()
}

// StoreRecovery reports how the state directory was recovered at startup.
// ok is false without a StateDir.
func (s *Server) StoreRecovery() (rec store.Recovery, ok bool) {
	if s.store == nil {
		return store.Recovery{}, false
	}
	return s.store.Recovery(), true
}

// EnergyTotals returns the fleet energy accumulators (zero without a
// ledger).
func (s *Server) EnergyTotals() telemetry.EnergyTotals { return s.cfg.Energy.Totals() }

// measureLoop is the 50 ms monitoring cadence; each tick also runs the
// liveness sweep when a policy is configured.
func (s *Server) measureLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.MeasureEvery)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-ticker.C:
			if mt := s.cfg.Metrics; mt != nil {
				now := time.Now()
				jitter := now.Sub(last) - s.cfg.MeasureEvery
				if jitter < 0 {
					jitter = -jitter
				}
				mt.MeasureJitter.Observe(jitter.Seconds())
				last = now
			}
			s.measureOnce()
			s.livenessSweep()
			if s.store != nil {
				s.store.SnapshotAge() // refresh the age gauge
			}
		case <-s.stop:
			return
		}
	}
}

func (s *Server) measureOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for instance, sess := range s.sessions {
		var utility, power float64
		var have bool
		if s.cfg.Sampler != nil {
			u, p, err := s.cfg.Sampler.Sample(sess.pid)
			if err == nil {
				utility, power, have = u, p, true
			}
		}
		if sess.own {
			sess.mu.Lock()
			if sess.hasUtility {
				utility = sess.lastUtility
				if s.cfg.Sampler == nil {
					have = power > 0
				} else {
					have = true
				}
			}
			stale := !sess.hasUtility || now.Sub(sess.lastReport) > 4*s.cfg.MeasureEvery
			if stale && sess.ready {
				// Periodically request the current utility from libharp
				// (§4.1.1 step 4) when the application has not pushed one
				// recently. A failed poll marks the session suspect for the
				// reaper (writeLocked records the failure) instead of
				// waiting for the reader to notice the broken peer.
				_ = s.writeLocked(sess, proto.MsgUtilityRequest, nil)
			}
			sess.mu.Unlock()
		}
		if !have {
			continue
		}
		_ = s.mgr.Measure(instance, utility, power)
	}
}

// writeLocked writes one framed message to the session connection under the
// configured write deadline. A failure counts a probe strike and pins the
// session suspect for the reaper. Callers hold sess.mu.
func (s *Server) writeLocked(sess *serverSession, typ proto.MsgType, body any) error {
	if d := s.cfg.WriteTimeout; d > 0 {
		_ = sess.conn.SetWriteDeadline(time.Now().Add(d))
		defer sess.conn.SetWriteDeadline(time.Time{})
	}
	err := proto.Write(sess.conn, typ, body)
	if err != nil {
		sess.probeFails++
		sess.forceSuspect = true
		if mt := s.cfg.Metrics; mt != nil {
			mt.WriteTimeouts.Inc()
		}
	}
	return err
}

// livenessSweep escalates silent sessions through suspect → quarantined →
// reaped, probes suspects with a ping, and readmits sessions whose traffic
// resumed. One sweep runs per measure tick, so a crashed session's cores are
// reclaimed within a bounded number of epochs after its reap deadline.
func (s *Server) livenessSweep() {
	if !s.cfg.Liveness.Enabled() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for instance, sess := range s.sessions {
		sess.mu.Lock()
		age := now.Sub(sess.lastSeen)
		fails := sess.probeFails
		forced := sess.forceSuspect
		ready := sess.ready
		sess.mu.Unlock()
		if !ready {
			continue // still inside the registration handshake
		}

		if s.cfg.Liveness.ShouldReap(age) || fails >= maxProbeFailures {
			delete(s.sessions, instance)
			_ = s.mgr.Reap(instance)
			// Closing the connection ends the reader goroutine; its deferred
			// cleanup sees the session already replaced and stands down.
			_ = sess.conn.Close()
			continue
		}

		state := s.cfg.Liveness.StateFor(age)
		reason := "silent"
		if forced && state == core.LivenessLive {
			state, reason = core.LivenessSuspect, "write-failed"
		}
		switch state {
		case core.LivenessQuarantined:
			_ = s.mgr.SetLiveness(instance, core.LivenessQuarantined, reason)
		case core.LivenessSuspect:
			_ = s.mgr.SetLiveness(instance, core.LivenessSuspect, reason)
			// Probe: a live client answers with a pong, resetting lastSeen.
			sess.mu.Lock()
			_ = s.writeLocked(sess, proto.MsgPing, nil)
			sess.mu.Unlock()
		default:
			_ = s.mgr.SetLiveness(instance, core.LivenessLive, "resumed")
		}
	}
}

// handleConn runs one application session.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()

	// One buffer-reusing reader per connection: sessions stream utility
	// reports every measure tick, so the per-frame allocation matters.
	rd := proto.NewReader(conn)
	env, err := rd.Read()
	if err != nil {
		return
	}
	var reg proto.Register
	if err := proto.DecodeBody(env, proto.MsgRegister, &reg); err != nil {
		_ = proto.Write(conn, proto.MsgRegisterAck, proto.RegisterAck{
			OK: false, Error: "first message must be a registration",
		})
		return
	}
	adaptivity, err := Adaptivity(reg.Adaptivity).internal()
	if err != nil {
		_ = proto.Write(conn, proto.MsgRegisterAck, proto.RegisterAck{OK: false, Error: err.Error()})
		return
	}
	instance := fmt.Sprintf("%s/%d", reg.App, reg.PID)
	sess := &serverSession{
		instance: instance,
		pid:      reg.PID,
		own:      reg.OwnUtility,
		conn:     conn,
		lastSeen: time.Now(),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, exists := s.sessions[instance]; exists {
		// A live session already owns this instance (e.g. a reconnecting
		// client racing the reaper): reject without disturbing it. The
		// client retries after the old session is reaped.
		err = fmt.Errorf("%w: %s", core.ErrDuplicateSession, instance)
	} else {
		s.sessions[instance] = sess
		err = s.mgr.Register(instance, reg.App, adaptivity, reg.OwnUtility)
		if err != nil {
			delete(s.sessions, instance)
		}
	}
	s.mu.Unlock()

	ack := proto.RegisterAck{SessionID: instance, OK: err == nil}
	if err != nil {
		ack.Error = err.Error()
	}
	sess.mu.Lock()
	writeErr := s.writeLocked(sess, proto.MsgRegisterAck, ack)
	if writeErr == nil && sess.pending != nil {
		writeErr = s.writeLocked(sess, proto.MsgActivate, *sess.pending)
		sess.pending = nil
	}
	sess.ready = true
	sess.mu.Unlock()
	if err != nil || writeErr != nil {
		return
	}

	defer func() {
		s.mu.Lock()
		// The liveness reaper may have replaced this session with a fresh
		// registration of the same instance; only clean up our own entry.
		if cur, ok := s.sessions[instance]; ok && cur == sess {
			delete(s.sessions, instance)
			_ = s.mgr.Deregister(instance)
		}
		s.mu.Unlock()
	}()

	for {
		env, err := rd.Read()
		if err != nil {
			return // EOF or broken peer: deregister via the deferred cleanup
		}
		sess.alive(time.Now())
		switch env.Type {
		case proto.MsgOperatingPoints:
			var up proto.OperatingPoints
			if err := proto.DecodeBody(env, proto.MsgOperatingPoints, &up); err != nil || up.Table == nil {
				continue
			}
			s.mu.Lock()
			_ = s.mgr.UploadTable(instance, up.Table)
			s.mu.Unlock()
		case proto.MsgUtilityReport:
			var rep proto.UtilityReport
			if err := proto.DecodeBody(env, proto.MsgUtilityReport, &rep); err != nil {
				continue
			}
			sess.mu.Lock()
			sess.lastUtility = rep.Utility
			sess.hasUtility = true
			sess.lastReport = time.Now()
			sess.mu.Unlock()
		case proto.MsgPhaseChange:
			var pc proto.PhaseChange
			if err := proto.DecodeBody(env, proto.MsgPhaseChange, &pc); err != nil {
				continue
			}
			s.mu.Lock()
			_ = s.mgr.PhaseChange(instance, pc.Phase)
			s.mu.Unlock()
		case proto.MsgPong:
			// Heartbeat answer to a liveness probe; sess.alive above already
			// recorded the traffic.
		case proto.MsgExit:
			return
		default:
			// Unknown message types are ignored for forward compatibility.
		}
	}
}

// pushDecision relays a manager decision to the session's connection.
// Called with s.mu held (all manager entry points hold it).
func (s *Server) pushDecision(d core.Decision) {
	sess, ok := s.sessions[d.Instance]
	if !ok {
		return
	}
	act := proto.Activate{
		Seq:         d.Seq,
		VectorKey:   d.Vector.Key(),
		Threads:     d.Threads,
		CoAllocated: d.CoAllocated,
	}
	for _, g := range d.Grants {
		act.Cores = append(act.Cores, proto.CoreGrant{Core: g.Core, Threads: g.Threads})
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.ready {
		sess.pending = &act
		return
	}
	if err := s.writeLocked(sess, proto.MsgActivate, act); err != nil && !errors.Is(err, io.EOF) {
		// writeLocked marked the session suspect; the reaper (or the reader
		// goroutine, whichever notices first) will deregister it.
		return
	}
}
