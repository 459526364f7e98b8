package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: binaries, the Go build
// cache (when run through run.sh), per-workload temp dirs and trace files.
// It is relative so Unix socket paths stay under the 108-byte limit however
// deep the checkout sits.
const buildDir = ".bench_build"

// tempDir creates a fresh directory under buildDir/tmp.
func tempDir(prefix string) (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// buildHarpd compiles cmd/harpd from the checkout once per process and
// returns the binary's path and the build's wall time.
func buildHarpd() (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "bin", "harpd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/harpd")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("build harpd: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return bin, time.Since(t0), nil
}

// daemons tracks every live child so an exit path — normal return, panic,
// SIGINT/SIGTERM — can kill them all; no workload leaves a stray harpd.
var daemons struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killAllDaemons() {
	daemons.Lock()
	ds := make([]*daemon, 0, len(daemons.live))
	for d := range daemons.live {
		ds = append(ds, d)
	}
	daemons.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// daemon is one harpd child process with its sockets and state in a fresh
// temp dir.
type daemon struct {
	cmd       *exec.Cmd
	dir       string
	sock      string
	ctl       string
	stateDir  string // empty without -state-dir
	telemetry string // http://127.0.0.1:port
	http      *http.Client

	exited  chan struct{}
	waitErr error
	stderr  bytes.Buffer
}

// startDaemon launches harpd with the benchmark's flags, parses the
// ephemeral telemetry port from its banner and waits — by connecting, not by
// sleeping — until the session socket accepts.
func startDaemon(bin string, durable bool) (*daemon, error) {
	dir, err := tempDir("d")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		sock:   filepath.Join(dir, "harp.sock"),
		ctl:    filepath.Join(dir, "ctl.sock"),
		exited: make(chan struct{}),
		http:   &http.Client{Timeout: 5 * time.Second},
	}
	args := []string{
		"-platform", "intel", "-no-exploration",
		"-telemetry", "127.0.0.1:0",
		"-epoch-budget=-1ns",
		"-socket", d.sock, "-control", d.ctl,
	}
	if durable {
		d.stateDir = filepath.Join(dir, "state")
		args = append(args, "-state-dir", d.stateDir)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// If the benchmark itself is killed outright, the kernel takes the child
	// down with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start harpd: %w", err)
	}
	daemons.Lock()
	if daemons.live == nil {
		daemons.live = map[*daemon]struct{}{}
	}
	daemons.live[d] = struct{}{}
	daemons.Unlock()

	banner := make(chan string, 1) // one send: the telemetry URL
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "harpd: telemetry on "); ok && !sent {
				banner <- strings.TrimSuffix(rest, "/metrics")
				sent = true
			}
		}
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.telemetry = <-banner:
	case <-d.exited:
		d.stop()
		return nil, fmt.Errorf("harpd exited during start-up: %v: %s", d.waitErr, d.stderrTail())
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("harpd printed no telemetry banner within 10 s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("unix", d.sock)
		if err == nil {
			conn.Close()
			return d, nil
		}
		if aerr := d.alive(); aerr != nil {
			d.stop()
			return nil, aerr
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("harpd socket %s not accepting: %v", d.sock, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// alive returns a descriptive error once the child has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("harpd (pid %d) died mid-run: %v: %s", d.cmd.Process.Pid, d.waitErr, d.stderrTail())
	default:
		return nil
	}
}

func (d *daemon) stderrTail() string {
	s := strings.TrimSpace(d.stderr.String())
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

// stop terminates the child (SIGTERM, then SIGKILL after 3 s), waits for it
// and removes its temp dir. Safe to call more than once.
func (d *daemon) stop() {
	daemons.Lock()
	_, tracked := daemons.live[d]
	delete(daemons.live, d)
	daemons.Unlock()
	if !tracked {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dir)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.telemetry + path)
	if err != nil {
		if aerr := d.alive(); aerr != nil {
			return nil, aerr
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// memSnap is the slice of runtime.MemStats the benchmark accounts with.
type memSnap struct {
	TotalAlloc   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// parseExpvarMem extracts memstats from a /debug/vars document.
func parseExpvarMem(raw []byte) (memSnap, error) {
	var doc struct {
		Memstats *memSnap `json:"memstats"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return memSnap{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	if doc.Memstats == nil {
		return memSnap{}, errors.New("/debug/vars without memstats")
	}
	return *doc.Memstats, nil
}

// parsePrometheus reads the text exposition format into a map keyed by the
// full series name including labels, e.g.
// `harp_epoch_phase_seconds_sum{phase="push"}`.
func parsePrometheus(raw []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// control sends one request to harpd's control socket (the harpctl
// interface) and decodes the JSON reply.
func (d *daemon) control(req map[string]any, reply any) error {
	conn, err := net.Dial("unix", d.ctl)
	if err != nil {
		if aerr := d.alive(); aerr != nil {
			return aerr
		}
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return err
	}
	return json.NewDecoder(conn).Decode(reply)
}
