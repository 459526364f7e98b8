// Command harpctl inspects a running harpd: it lists registered sessions,
// shows their live utility/power and standing allocations, dumps learned
// operating-point tables, and tails the daemon's adaptation-loop trace — the
// way an administrator would inspect /etc/harp state (§4.3).
//
// Usage:
//
//	harpctl [-control /tmp/harpctl.sock] sessions
//	harpctl [-control /tmp/harpctl.sock] status [-json]
//	harpctl [-control /tmp/harpctl.sock] health [-exit-code]
//	harpctl [-control /tmp/harpctl.sock] top [-interval 2s] [-n 0]
//	harpctl [-control /tmp/harpctl.sock] table <instance>
//	harpctl [-control /tmp/harpctl.sock] trace tail [n]
//	harpctl [-control /tmp/harpctl.sock] trace dump
//	harpctl fleet [-json] <control-socket>...
//
// `health` prints the daemon's self-assessment (the same report harpd
// serves at /healthz) and exits non-zero when the daemon is unhealthy.
// With -exit-code the exit status encodes the grade for scripts and
// probes: 0 ok, 1 degraded, 2 unhealthy.
// `top` refreshes a per-session energy/efficiency view every -interval
// (-n bounds the number of frames; 0 runs until interrupted).
// `status`, `status -json`, `top` and `fleet` all render the harp.Status
// document the daemon answers the `sessions` op with; `status -json`
// prints it as a versioned machine-readable document with a stable field
// set, for monitoring pipelines that must survive harpctl upgrades.
// `sessions`, `table` and `trace dump` print the daemon's reply as is.
// `fleet` queries several machines' control sockets and renders one row
// per machine — the operator's cross-fleet view; unreachable machines get
// a down row instead of failing the whole command.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/telemetry"
)

const usage = "usage: harpctl [-control PATH] sessions | status [-json] | health [-exit-code] | top [-interval D] [-n N] | table <instance> | trace tail [n] | trace dump | fleet [-json] <socket>..."

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		var ee exitError
		if errors.As(err, &ee) {
			// health -exit-code: the report is already printed; the status
			// rides the exit code alone.
			os.Exit(ee.code)
		}
		fmt.Fprintln(os.Stderr, "harpctl:", err)
		os.Exit(1)
	}
}

// exitError requests a specific process exit status without an error
// message (the command already printed its report).
type exitError struct{ code int }

func (e exitError) Error() string { return fmt.Sprintf("exit status %d", e.code) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harpctl", flag.ContinueOnError)
	controlPath := fs.String("control", "/tmp/harpctl.sock", "harpd control socket")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New(usage)
	}

	switch rest[0] {
	case "sessions":
		return dump(out, *controlPath, map[string]any{"op": "sessions"})
	case "status":
		sfs := flag.NewFlagSet("harpctl status", flag.ContinueOnError)
		asJSON := sfs.Bool("json", false, "emit a machine-readable status document with a stable field set")
		if err := sfs.Parse(rest[1:]); err != nil {
			return err
		}
		st, err := queryStatus(*controlPath)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(out, st)
		}
		renderStatus(out, st)
		return nil
	case "fleet":
		return runFleet(rest[1:], out)
	case "health":
		hfs := flag.NewFlagSet("harpctl health", flag.ContinueOnError)
		exitCode := hfs.Bool("exit-code", false, "map the health grade to the exit status: 0 ok, 1 degraded, 2 unhealthy")
		if err := hfs.Parse(rest[1:]); err != nil {
			return err
		}
		rep, err := queryHealth(*controlPath)
		if err != nil {
			return err
		}
		return renderHealth(out, rep, *exitCode)
	case "top":
		return runTop(*controlPath, rest[1:], out)
	case "table":
		if len(rest) != 2 {
			return errors.New("usage: harpctl table <instance>")
		}
		return dump(out, *controlPath, map[string]any{"op": "table", "instance": rest[1]})
	case "trace":
		if len(rest) < 2 {
			return errors.New("usage: harpctl trace tail [n] | trace dump")
		}
		switch rest[1] {
		case "tail":
			n := 20
			if len(rest) == 3 {
				v, err := strconv.Atoi(rest[2])
				if err != nil || v <= 0 {
					return fmt.Errorf("trace tail: bad count %q", rest[2])
				}
				n = v
			}
			var tr traceReply
			if err := query(*controlPath, map[string]any{"op": "trace", "n": n}, &tr); err != nil {
				return err
			}
			renderTrace(out, tr)
			return nil
		case "dump":
			return dump(out, *controlPath, map[string]any{"op": "trace", "n": 0})
		default:
			return fmt.Errorf("unknown trace subcommand %q", rest[1])
		}
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// query performs one request/response exchange with the harpd control
// socket and decodes the reply into reply. A daemon error reply
// ({"error": "..."}) becomes the returned error.
func query(controlPath string, req map[string]any, reply any) error {
	conn, err := net.Dial("unix", controlPath)
	if err != nil {
		return fmt.Errorf("connect to harpd: %w", err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return err
	}
	var raw json.RawMessage
	if err := json.NewDecoder(conn).Decode(&raw); err != nil {
		return err
	}
	var failed struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &failed) == nil && failed.Error != "" {
		return fmt.Errorf("harpd: %s", failed.Error)
	}
	return json.Unmarshal(raw, reply)
}

// queryStatus fetches the daemon's status document.
func queryStatus(controlPath string) (harp.Status, error) {
	var st harp.Status
	err := query(controlPath, map[string]any{"op": "sessions"}, &st)
	return st, err
}

// queryHealth fetches the daemon's self-assessment.
func queryHealth(controlPath string) (harp.HealthReport, error) {
	var reply struct {
		Health harp.HealthReport `json:"health"`
	}
	err := query(controlPath, map[string]any{"op": "health"}, &reply)
	return reply.Health, err
}

// dump prints the daemon's reply to req, indented.
func dump(out io.Writer, controlPath string, req map[string]any) error {
	var raw json.RawMessage
	if err := query(controlPath, req, &raw); err != nil {
		return err
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		return err
	}
	fmt.Fprintln(out, pretty.String())
	return nil
}

// printJSON prints v as indented JSON.
func printJSON(out io.Writer, v any) error {
	pretty, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(pretty))
	return nil
}

// uptime renders a status document's uptime to the second.
func uptime(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second)).Round(time.Second)
}

// renderStatus prints the RM header (generation, uptime) and the per-session
// utility/power/allocation table behind `harpctl status`.
func renderStatus(out io.Writer, st harp.Status) {
	gen := "-" // zero means the daemon runs without a state dir
	if st.Generation > 0 {
		gen = strconv.FormatUint(st.Generation, 10)
	}
	fmt.Fprintf(out, "rm generation %s, up %s\n", gen, uptime(st.UptimeSec))
	// An empty source means no solve yet.
	if c := st.AllocCache; c != nil {
		fmt.Fprintf(out, "alloc cache %d/%d, hit rate %.1f%% (%d hits, %d misses, %d evictions), last solve %s\n",
			c.Size, c.Cap, 100*c.HitRate, c.Hits, c.Misses, c.Evictions, orDash(st.SolveSource))
	} else {
		fmt.Fprintf(out, "alloc cache off, last solve %s\n", orDash(st.SolveSource))
	}
	// Telemetry health: the first sticky journal error and the tracer's
	// eviction count — both zero on a healthy daemon.
	if st.JournalError != "" {
		fmt.Fprintf(out, "journal ERROR: %s\n", st.JournalError)
	}
	if st.TracerDropped > 0 {
		fmt.Fprintf(out, "tracer dropped %d events\n", st.TracerDropped)
	}
	// Overload surface: the degradation-ladder rung that resolved the last
	// epoch, the sticky last epoch error, and durability-degraded storage.
	if st.DegradedRung != "" {
		fmt.Fprintf(out, "last epoch DEGRADED via %s\n", st.DegradedRung)
	}
	if st.LastEpochError != "" {
		fmt.Fprintf(out, "last epoch error: %s\n", st.LastEpochError)
	}
	if st.StoreDegraded {
		fmt.Fprintln(out, "store DEGRADED: write retries exhausted, snapshots suspended")
	}
	if len(st.Sessions) == 0 {
		fmt.Fprintln(out, "no sessions")
		return
	}
	// Overload regime: the share of sessions on time-shared cores.
	fmt.Fprintf(out, "co-allocated %.1f%% of %d sessions\n", 100*st.CoAllocatedShare, len(st.Sessions))
	fmt.Fprintf(out, "%-22s %-14s %-11s %-11s %6s %10s %9s  %-12s %7s %5s\n",
		"INSTANCE", "APP", "STAGE", "LIVENESS", "AGE", "UTILITY", "POWER[W]", "VECTOR", "THREADS", "CORES")
	for _, s := range st.Sessions {
		stage := s.Stage
		if s.Exploring {
			stage += "*"
		}
		fmt.Fprintf(out, "%-22s %-14s %-11s %-11s %6s %10.1f %9.1f  %-12s %7d %5d\n",
			s.Instance, s.App, stage, s.Liveness, ageLabel(s.AgeSec),
			s.Utility, s.PowerW, orDash(s.Vector), s.Threads, s.Cores)
	}
}

// ageLabel formats the seconds since the session's last report; the daemon
// sends a negative age when it does not track liveness.
func ageLabel(sec float64) string {
	if sec < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fs", sec)
}

// traceReply is the daemon's answer to the trace op.
type traceReply struct {
	Events  []telemetry.Event `json:"events"`
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
}

// renderTrace prints one line per event for `harpctl trace tail`.
func renderTrace(out io.Writer, tr traceReply) {
	for _, ev := range tr.Events {
		line := fmt.Sprintf("%12s  %-20s %-22s", ev.At, ev.Kind, ev.Instance)
		if ev.Vector != "" {
			line += " vector=" + ev.Vector
		}
		if ev.Stage != "" {
			line += " stage=" + ev.Stage
		}
		if ev.Seq != 0 {
			line += fmt.Sprintf(" seq=%d", ev.Seq)
		}
		if ev.Utility != 0 || ev.Power != 0 {
			line += fmt.Sprintf(" utility=%.1f power=%.1fW", ev.Utility, ev.Power)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "%d events shown (%d emitted, %d evicted from the ring)\n",
		len(tr.Events), tr.Total, tr.Dropped)
}

// renderHealth prints the daemon's self-assessment one check per line. By
// default it fails the command (exit 1) only when the daemon is unhealthy,
// so scripts can gate on it; with exitCode the grade maps onto the exit
// status instead: 0 ok, 1 degraded, 2 unhealthy.
func renderHealth(out io.Writer, rep harp.HealthReport, exitCode bool) error {
	fmt.Fprintf(out, "status: %s\n", rep.Status)
	for _, c := range rep.Checks {
		line := fmt.Sprintf("  %-15s %s", c.Name, c.Status)
		if c.Detail != "" {
			line += "  (" + c.Detail + ")"
		}
		fmt.Fprintln(out, line)
	}
	if exitCode {
		switch rep.Status {
		case harp.HealthDegraded:
			return exitError{code: 1}
		case harp.HealthUnhealthy:
			return exitError{code: 2}
		}
		return nil
	}
	if rep.Status == harp.HealthUnhealthy {
		return errors.New("daemon is unhealthy")
	}
	return nil
}

// runTop implements `harpctl top`: a refreshing per-session
// energy/efficiency view over the control socket. -n bounds the number of
// frames (0 = until interrupted); frames after the first clear the screen.
func runTop(controlPath string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harpctl top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	frames := fs.Int("n", 0, "number of frames to render (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("top: bad interval %s", *interval)
	}
	for i := 0; ; i++ {
		st, err := queryStatus(controlPath)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderTop(out, st)
		if *frames > 0 && i+1 >= *frames {
			return nil
		}
		time.Sleep(*interval)
	}
}

// renderTop prints one top frame: a fleet header (uptime, budget headroom,
// epoch latency, cache hit rate, telemetry health) and a per-session
// energy table.
func renderTop(out io.Writer, st harp.Status) {
	hitRate := 0.0
	if st.AllocCache != nil {
		hitRate = st.AllocCache.HitRate
	}
	fmt.Fprintf(out, "harp top — up %s, %d sessions\n", uptime(st.UptimeSec), len(st.Sessions))
	fmt.Fprintf(out, "power %.1fW / budget %.1fW (headroom %.1fW, overrun %.1fs)  fleet %.1fJ\n",
		st.FleetPowerW, st.BudgetW, st.BudgetW-st.FleetPowerW, st.BudgetOverrunSec, st.FleetJoules)
	fmt.Fprintf(out, "epoch p99 %.2fms, cache hit rate %.1f%%, last solve %s, tracer dropped %d\n",
		st.EpochP99Sec*1e3, 100*hitRate, orDash(st.SolveSource), st.TracerDropped)
	if st.JournalError != "" {
		fmt.Fprintf(out, "journal ERROR: %s\n", st.JournalError)
	}
	if st.DegradedRung != "" {
		fmt.Fprintf(out, "DEGRADED: last epoch via %s\n", st.DegradedRung)
	}
	if st.StoreDegraded {
		fmt.Fprintln(out, "store DEGRADED: snapshots suspended")
	}
	if len(st.Sessions) == 0 {
		fmt.Fprintln(out, "no sessions")
		return
	}
	fmt.Fprintf(out, "%-22s %-14s %10s %9s %10s %10s %5s %-11s\n",
		"INSTANCE", "APP", "UTILITY", "POWER[W]", "ENERGY[J]", "EFF[u/J]", "CORES", "LIVENESS")
	for _, s := range st.Sessions {
		fmt.Fprintf(out, "%-22s %-14s %10.1f %9.1f %10.1f %10.3f %5d %-11s\n",
			s.Instance, s.App, s.Utility, s.PowerW, s.Joules, s.Efficiency, s.Cores, s.Liveness)
	}
}

// orDash substitutes "-" for an empty string in rendered fields.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
