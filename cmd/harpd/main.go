// Command harpd runs the HARP resource-manager daemon (§4.3): it listens on
// a Unix socket for libharp registrations, loads hardware and application
// descriptions from a /etc/harp-style configuration directory, and exposes a
// control socket for harpctl.
//
// Usage:
//
//	harpd -platform intel -socket /run/harp.sock -control /run/harpctl.sock \
//	      -config /etc/harp [-no-exploration] [-liveness] \
//	      [-suspect-after 1s -quarantine-after 3s -reap-after 10s] \
//	      [-write-timeout 2s] [-telemetry 127.0.0.1:9140] \
//	      [-journal /var/log/harp/journal.jsonl] [-trace-buffer 4096] \
//	      [-state-dir /var/lib/harp] [-max-sessions 64] [-epoch-budget 20ms]
//
// -liveness enables session health tracking (suspect → quarantine → reap,
// see OPERATIONS.md); the three deadline flags tune it and imply -liveness on
// their own. harpctl status shows each session's state and report age.
//
// -write-timeout bounds each message write to a session socket;
// -epoch-budget bounds each epoch's solve before the degradation ladder
// engages (OPERATIONS.md). The solver always runs with a 64-entry solution
// cache and warm starts.
//
// -state-dir makes the daemon durable: learned operating-point tables and
// session context are recovered from the directory's snapshot + write-ahead
// log at startup (warm restart — even after kill -9), every mutation is
// WAL-logged, and a graceful shutdown writes a final snapshot. Corrupt state
// is quarantined and the daemon cold-starts rather than refusing to boot.
// -max-sessions caps concurrent registrations (rejections are journalled and
// counted). See OPERATIONS.md, "Warm restart".
//
// The daemon always keeps a ring buffer of adaptation-loop events (harpctl
// trace) and a metrics registry. -telemetry additionally serves them over
// HTTP: /metrics (Prometheus text format), /debug/vars (the Go runtime's
// expvar memstats) and /debug/pprof/ (runtime profiles). -journal appends one JSONL record per
// decision epoch to the given file.
//
// Without a real perf/RAPL sampler (not available in this repository's
// offline environment), sessions are driven purely by uploaded operating
// points and self-reported utility; see package harpsim for the simulated
// closed loop.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "harpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("harpd", flag.ContinueOnError)
	var (
		platformName  = fs.String("platform", "intel", "built-in platform name or hardware description file")
		socketPath    = fs.String("socket", "/tmp/harp.sock", "Unix socket for libharp sessions")
		controlPath   = fs.String("control", "/tmp/harpctl.sock", "Unix socket for harpctl")
		configDir     = fs.String("config", "", "configuration directory (hardware description, opoints/)")
		noExploration = fs.Bool("no-exploration", false, "disable online exploration (HARP Offline)")
		liveness      = fs.Bool("liveness", false, "enable session liveness tracking with the default deadlines (see OPERATIONS.md)")
		suspectAfter  = fs.Duration("suspect-after", 0, "mark sessions suspect after this much silence (implies -liveness)")
		quarantine    = fs.Duration("quarantine-after", 0, "quarantine sessions after this much silence (implies -liveness)")
		reapAfter     = fs.Duration("reap-after", 0, "deregister sessions after this much silence (implies -liveness)")
		writeTimeout  = fs.Duration("write-timeout", 0, "per-message write deadline on session sockets (0 = default, negative = none)")
		telemetryAddr = fs.String("telemetry", "", "HTTP address for /metrics, /debug/vars and /debug/pprof/ (empty = off)")
		journalPath   = fs.String("journal", "", "append per-epoch decision records (JSONL) to this file (empty = off)")
		traceBuffer   = fs.Int("trace-buffer", 0, "event ring capacity for harpctl trace (0 = default)")
		stateDir      = fs.String("state-dir", "", "directory for durable RM state (snapshot + WAL); restarts resume learned tables (empty = off)")
		maxSessions   = fs.Int("max-sessions", 0, "admission cap on concurrent sessions (0 = unlimited)")
		epochBudget   = fs.Duration("epoch-budget", 0, "deadline budget per epoch solve before the degradation ladder engages (0 = default, negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	plat, err := harp.LoadPlatform(*platformName)
	if err != nil {
		return err
	}

	tracer := telemetry.NewTracer(*traceBuffer)
	registry := telemetry.NewRegistry()
	metrics := telemetry.NewMetrics(registry)
	energy := telemetry.NewEnergyLedger()
	var journal *telemetry.Journal
	if *journalPath != "" {
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		defer f.Close()
		journal = telemetry.NewJournal(f)
	}

	policy, err := livenessPolicy(*liveness, *suspectAfter, *quarantine, *reapAfter)
	if err != nil {
		return err
	}

	srv, err := harp.NewServer(harp.ServerConfig{
		Platform:           plat,
		ConfigDir:          *configDir,
		DisableExploration: *noExploration || !plat.SimultaneousPMU,
		Liveness:           policy,
		WriteTimeout:       *writeTimeout,
		Tracer:             tracer,
		Metrics:            metrics,
		Journal:            journal,
		Energy:             energy,
		StateDir:           *stateDir,
		MaxSessions:        *maxSessions,
		AllocWarmStart:     true,
		EpochBudget:        *epochBudget,
	})
	if err != nil {
		return err
	}
	if rec, ok := srv.StoreRecovery(); ok {
		switch {
		case rec.ColdStart:
			fmt.Printf("harpd: state %s: cold start (generation %d)", *stateDir, srv.Generation())
		default:
			fmt.Printf("harpd: state %s: warm restart (generation %d, %d WAL records)",
				*stateDir, srv.Generation(), rec.WALRecords)
		}
		if rec.Quarantined != "" {
			fmt.Printf(", corrupt files quarantined in %s", rec.Quarantined)
		}
		if rec.Err != nil {
			fmt.Printf(" [%v]", rec.Err)
		}
		fmt.Println()
	}

	ctl, err := newControlListener(*controlPath, srv, tracer)
	if err != nil {
		return err
	}
	defer ctl.Close()
	go ctl.serve()

	if *telemetryAddr != "" {
		tln, err := net.Listen("tcp", *telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer tln.Close()
		go func() { _ = http.Serve(tln, telemetryMux(registry, srv)) }()
		fmt.Printf("harpd: telemetry on http://%s/metrics\n", tln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	closeErr := make(chan error, 1)
	go func() {
		<-sigc
		closeErr <- srv.Close()
	}()

	fmt.Printf("harpd: managing %s on %s (control %s)\n", plat, *socketPath, *controlPath)
	if err := srv.ListenAndServe(*socketPath); err != nil {
		return err
	}
	// Serve returns nil only once Close has begun (the signal handler above);
	// wait for it so the final snapshot is on disk before the process exits.
	return <-closeErr
}

// livenessPolicy builds the session-liveness deadlines from the flags:
// -liveness enables the defaults, any explicit deadline overrides its default
// (and enables tracking on its own). The server validates the ordering again;
// checking here yields a flag-level error message.
func livenessPolicy(enabled bool, suspect, quarantine, reap time.Duration) (core.LivenessPolicy, error) {
	if !enabled && suspect == 0 && quarantine == 0 && reap == 0 {
		return core.LivenessPolicy{}, nil
	}
	p := core.DefaultLivenessPolicy()
	if suspect > 0 {
		p.SuspectAfter = suspect
	}
	if quarantine > 0 {
		p.QuarantineAfter = quarantine
	}
	if reap > 0 {
		p.ReapAfter = reap
	}
	if err := p.Validate(); err != nil {
		return core.LivenessPolicy{}, err
	}
	return p, nil
}

// telemetryMux serves the observability endpoints: Prometheus text, the
// runtime's expvar memstats, the health surface, and the standard pprof
// profiles.
func telemetryMux(reg *telemetry.Registry, srv *harp.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		rep := srv.Health()
		w.Header().Set("Content-Type", "application/json")
		// Degraded still answers 200: load balancers should keep routing to
		// an RM that is serving with eroded guarantees, and alert off the
		// body (or the metrics) instead.
		if rep.Status == harp.HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(rep)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// controlListener answers harpctl queries with JSON lines.
type controlListener struct {
	ln     net.Listener
	srv    *harp.Server
	tracer *telemetry.Tracer
}

func newControlListener(path string, srv *harp.Server, tracer *telemetry.Tracer) (*controlListener, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	return &controlListener{ln: ln, srv: srv, tracer: tracer}, nil
}

func (c *controlListener) Close() error { return c.ln.Close() }

func (c *controlListener) serve() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handle(conn)
	}
}

// handle answers one request per connection: a JSON object
// {"op": "sessions"} (answered with a harp.Status document),
// {"op": "table", "instance": "..."}, {"op": "trace", "n": 100} (n = 0
// dumps the whole ring) or {"op": "health"}. Failures answer
// {"error": "..."}.
func (c *controlListener) handle(conn net.Conn) {
	defer conn.Close()
	var req struct {
		Op       string `json:"op"`
		Instance string `json:"instance"`
		N        int    `json:"n"`
	}
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	if err := dec.Decode(&req); err != nil {
		_ = enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	switch req.Op {
	case "sessions":
		_ = enc.Encode(c.srv.Status())
	case "table":
		tbl, err := c.srv.TableSnapshot(req.Instance)
		if err != nil {
			_ = enc.Encode(map[string]string{"error": err.Error()})
			return
		}
		_ = enc.Encode(map[string]any{"table": tbl})
	case "trace":
		_ = enc.Encode(map[string]any{
			"events":  c.tracer.Tail(req.N),
			"total":   c.tracer.Total(),
			"dropped": c.tracer.Dropped(),
		})
	case "health":
		_ = enc.Encode(map[string]any{"health": c.srv.Health()})
	default:
		_ = enc.Encode(map[string]string{"error": "unknown op " + req.Op})
	}
}
