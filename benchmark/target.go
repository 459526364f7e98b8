package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// rmTarget is the resource manager a daemon workload drives: the real harpd
// child (every end-to-end number) or its in-process twin (the traced run and
// the unit-test smoke), behind the same Unix-socket protocol.
type rmTarget interface {
	socket() string
	sut() sut
	// metrics scrapes the RM's Prometheus exposition.
	metrics() (map[string]float64, error)
	// sessionGone reports whether the instance is no longer registered, as
	// harpctl would see it.
	sessionGone(instance string) (bool, error)
	// alive returns a descriptive error once the RM has died.
	alive() error
	stop()
}

// harpdTarget drives the real daemon.
type harpdTarget struct{ d *daemon }

func (t harpdTarget) socket() string { return t.d.sock }
func (t harpdTarget) sut() sut       { return procSUT{t.d} }
func (t harpdTarget) alive() error   { return t.d.alive() }
func (t harpdTarget) stop()          { t.d.stop() }

func (t harpdTarget) metrics() (map[string]float64, error) {
	raw, err := t.d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parsePrometheus(raw), nil
}

func (t harpdTarget) sessionGone(instance string) (bool, error) {
	var reply struct {
		Error string `json:"error"`
	}
	if err := t.d.control(map[string]any{"op": "table", "instance": instance}, &reply); err != nil {
		return false, err
	}
	return reply.Error != "", nil
}

// twinTarget is an in-process harp.Server configured like the benchmark's
// harpd (Raptor Lake, exploration off, warm starts on, default cache, no
// epoch deadline). With a tracer its listener's connections and its solver
// are wrapped in timing seams.
type twinTarget struct {
	srv    *harp.Server
	reg    *telemetry.Registry
	dir    string
	sock   string
	served chan error
	solver *tracedAllocator // nil when untraced
}

func startTwin(plat *platform.Platform, durable bool, tr *tracer) (*twinTarget, error) {
	dir, err := tempDir("t")
	if err != nil {
		return nil, err
	}
	t := &twinTarget{
		reg:    telemetry.NewRegistry(),
		dir:    dir,
		sock:   filepath.Join(dir, "harp.sock"),
		served: make(chan error, 1), // one send: Serve's return value
	}
	metrics := telemetry.NewMetrics(t.reg)
	tracer := telemetry.NewTracer(0)
	cfg := harp.ServerConfig{
		Platform:           plat,
		DisableExploration: true,
		Tracer:             tracer,
		Metrics:            metrics,
		Energy:             telemetry.NewEnergyLedger(),
		AllocWarmStart:     true,
		EpochBudget:        -1,
	}
	if durable {
		cfg.StateDir = filepath.Join(dir, "state")
	}
	if tr != nil {
		inner, err := alloc.New(plat,
			alloc.WithTracer(tracer), alloc.WithMetrics(metrics),
			alloc.WithCache(alloc.DefaultCacheSize), alloc.WithWarmStart(true))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		t.solver = newTracedAllocator(inner, tr)
		cfg.Allocator = t.solver
	}
	if t.srv, err = harp.NewServer(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("unix", t.sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if tr != nil {
		ln = tracedListener{Listener: ln, tr: tr}
	}
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

func (t *twinTarget) socket() string { return t.sock }
func (t *twinTarget) sut() sut       { return selfSUT{} }
func (t *twinTarget) alive() error   { return nil }

func (t *twinTarget) stop() {
	_ = t.srv.Close()
	<-t.served
	os.RemoveAll(t.dir)
}

func (t *twinTarget) metrics() (map[string]float64, error) {
	var buf bytes.Buffer
	t.reg.WritePrometheus(&buf)
	return parsePrometheus(buf.Bytes()), nil
}

func (t *twinTarget) sessionGone(instance string) (bool, error) {
	_, err := t.srv.TableSnapshot(instance)
	if err == nil {
		return false, nil
	}
	if errors.Is(err, core.ErrUnknownSession) {
		return true, nil
	}
	return false, fmt.Errorf("twin: table snapshot: %w", err)
}
