package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// runEnv is what a workload needs from the invocation.
type runEnv struct {
	seed int64
	// harpd is the daemon binary; empty selects the in-process twin.
	harpd string
	// tr, when set, makes this the traced run: spans around every public
	// call, timing seams on the twin.
	tr *tracer
	// small shrinks populations and warm-ups for the unit-test smoke.
	small bool
}

func (e runEnv) pick(full, small int) int {
	if e.small {
		return small
	}
	return full
}

// daemonBase is what daemon-admit and daemon-retable share: the RM target,
// the driver-side population of connected sessions, and the counters read
// from outside the daemon when the measured phase begins.
type daemonBase struct {
	env    runEnv
	plat   *platform.Platform
	target rmTarget
	pop    *population

	clients []*harp.Client
	order   []string                 // session instances in registration order
	tables  map[string]*opoint.Table // session instance → its current table

	ops         int
	eventsPerOp int
	startRSS    float64
	base        daemonCounters
	dialAck     []float64 // ms, Dial → registration ack
	timer       *time.Timer
}

// daemonCounters are the readings taken from outside the daemon.
type daemonCounters struct {
	metrics  map[string]float64
	io       procIO
	ctx      int64
	walBytes int64
	fanout   int
}

func (b *daemonBase) init(env runEnv) {
	b.env = env
	b.plat = platform.RaptorLake()
	b.pop = newPopulation(b.plat)
	b.tables = map[string]*opoint.Table{}
	b.timer = time.NewTimer(time.Hour)
	b.timer.Stop()
}

func (b *daemonBase) sut() sut              { return b.target.sut() }
func (b *daemonBase) cpuWholeSegment() bool { _, real := b.target.(harpdTarget); return real }

func (b *daemonBase) start(durable bool) error {
	var err error
	if b.env.harpd != "" {
		var d *daemon
		if d, err = startDaemon(b.env.harpd, durable); err == nil {
			b.target = harpdTarget{d}
		}
	} else {
		var t *twinTarget
		if t, err = startTwin(b.plat, durable, b.env.tr); err == nil {
			b.target = t
		}
	}
	if err != nil {
		return err
	}
	b.startRSS, err = b.target.sut().rssMB()
	return err
}

func (b *daemonBase) teardown() {
	for _, c := range b.clients {
		_ = c.Close()
	}
	b.clients = nil
	if b.target != nil {
		b.target.stop()
		b.target = nil
	}
}

// join registers one standing session: Dial, remember the client, and route
// its activations into the population (and to ch, when given).
func (b *daemonBase) join(app string, pid int, ch chan harp.Activation) (*harp.Client, string, error) {
	instance := fmt.Sprintf("%s/%d", app, pid)
	parked := ch == nil
	c, err := harp.Dial(b.target.socket(), harp.Registration{
		App: app, PID: pid, Adaptivity: harp.Scalable,
		OnActivate: func(a harp.Activation) {
			b.pop.observe(instance, a, parked)
			if ch != nil {
				select {
				case ch <- a:
				default:
				}
			}
		},
	})
	if err != nil {
		return nil, "", fmt.Errorf("dial %s: %w", instance, err)
	}
	b.clients = append(b.clients, c)
	b.order = append(b.order, instance)
	return c, instance, nil
}

// awaitReallocations waits until the RM has run n epochs: the only way to
// know an unacknowledged upload has been applied.
func (b *daemonBase) awaitReallocations(n float64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		mt, err := b.target.metrics()
		if err != nil {
			return err
		}
		if mt["harp_reallocations_total"] >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("RM ran %v of %v expected epochs", mt["harp_reallocations_total"], n)
		}
		time.Sleep(time.Millisecond)
	}
}

// await waits for the next activation on ch, failing after opTimeout.
func (b *daemonBase) await(ch chan harp.Activation) (harp.Activation, error) {
	b.timer.Reset(opTimeout)
	select {
	case a := <-ch:
		if !b.timer.Stop() {
			<-b.timer.C
		}
		return a, nil
	case <-b.timer.C:
		if err := b.target.alive(); err != nil {
			return harp.Activation{}, errFatal{err}
		}
		return harp.Activation{}, fmt.Errorf("no activation within %v", opTimeout)
	}
}

// checkOutputs is the per-operation output check: every activation received
// since the last call was valid, and — every 16th op, when pushes have had
// time to land — no core is held by two isolated sessions.
func (b *daemonBase) checkOutputs(i int) error {
	if v := b.pop.takeViolations(); len(v) > 0 {
		return fmt.Errorf("invalid activation: %s", strings.Join(v, "; "))
	}
	if i%16 == 15 {
		if msg := b.pop.settledDoubleGrant(50 * time.Millisecond); msg != "" {
			return fmt.Errorf("isolation violated: %s", msg)
		}
	}
	return nil
}

func (b *daemonBase) readCounters() (daemonCounters, error) {
	var c daemonCounters
	var err error
	if c.metrics, err = b.target.metrics(); err != nil {
		return c, err
	}
	c.fanout = b.pop.fanout()
	if t, ok := b.target.(harpdTarget); ok {
		if c.io, err = readProcIO(t.d.pid()); err != nil {
			return c, err
		}
		if c.ctx, err = readCtxSwitches(t.d.pid()); err != nil {
			return c, err
		}
		if t.d.stateDir != "" {
			if st, err := os.Stat(filepath.Join(t.d.stateDir, "wal.log")); err == nil {
				c.walBytes = st.Size()
			}
		}
	}
	return c, nil
}

// energyX is Σ ζ of the standing decisions ÷ Σ ζ of a from-scratch greedy
// solve of the same session set. Parked sessions (zero vector) are excluded
// from both sums and counted.
func (b *daemonBase) energyX() (x float64, parked int, err error) {
	standing := b.pop.standing()
	var inputs []alloc.AppInput
	var chosen []alloc.Allocation
	for _, inst := range b.order {
		act, ok := standing[inst]
		if !ok {
			return 0, 0, fmt.Errorf("session %s never received an activation", inst)
		}
		rv, err := platform.ParseKey(b.plat, act.VectorKey)
		if err != nil {
			return 0, 0, err
		}
		if rv.IsZero() {
			parked++
			continue
		}
		tbl := b.tables[inst]
		pt, ok := tbl.Lookup(rv)
		if !ok {
			return 0, 0, fmt.Errorf("session %s stands on %s, which is not in its table", inst, act.VectorKey)
		}
		inputs = append(inputs, alloc.AppInput{ID: inst, Table: tbl})
		chosen = append(chosen, alloc.Allocation{ID: inst, Point: pt})
	}
	return costRatio(b.plat, inputs, chosen), parked, err
}

// costRatio divides the standing decisions' total ζ by a fresh greedy
// solve's over the same inputs.
func costRatio(plat *platform.Platform, inputs []alloc.AppInput, chosen []alloc.Allocation) float64 {
	greedy, err := alloc.New(plat, alloc.WithMethod(alloc.Greedy))
	if err != nil {
		return 0
	}
	ref, err := greedy.Allocate(inputs)
	if err != nil {
		return 0
	}
	den := alloc.TotalCost(ref, inputs)
	if den == 0 {
		return 0
	}
	return alloc.TotalCost(chosen, inputs) / den
}

// layerStats turns the outside readings into the per-layer metrics the
// daemon workloads own.
func (b *daemonBase) layerStats() (map[string]float64, error) {
	end, err := b.readCounters()
	if err != nil {
		return nil, err
	}
	ops := float64(b.ops)
	if ops == 0 {
		ops = 1
	}
	delta := func(name string) float64 { return end.metrics[name] - b.base.metrics[name] }
	out := map[string]float64{
		"harp.dial_ack_ms_p50":    median(b.dialAck),
		"harp.push_fanout_per_op": float64(end.fanout-b.base.fanout) / ops,
	}
	if _, real := b.target.(harpdTarget); real {
		out["harp.wire_bytes_per_op"] = float64(end.io.bytes-b.base.io.bytes) / ops
		out["harp.syscalls_per_op"] = float64(end.io.syscalls-b.base.io.syscalls) / ops
		out["harp.ctx_switches_per_op"] = float64(end.ctx-b.base.ctx) / ops
		out["store.wal_bytes_per_op"] = float64(end.walBytes-b.base.walBytes) / ops
		if rss, err := b.target.sut().rssMB(); err == nil && len(b.order) > 0 {
			out["harp.rss_kb_per_session"] = (rss - b.startRSS) * 1024 / float64(len(b.order))
		}
	}
	epochs := delta("harp_reallocations_total")
	if epochs > 0 {
		out["core.events_per_epoch"] = ops * float64(b.eventsPerOp) / epochs
		out["core.decisions_per_epoch"] = delta("harp_decisions_total") / epochs
	}
	for phase, name := range map[string]string{"snapshot": "core.snapshot_phase_ms", "push": "core.push_phase_ms", "journal": "core.journal_phase_ms"} {
		if n := delta(`harp_epoch_phase_seconds_count{phase="` + phase + `"}`); n > 0 {
			out[name] = 1e3 * delta(`harp_epoch_phase_seconds_sum{phase="`+phase+`"}`) / n
		}
	}
	out["core.epoch_ms_p99"] = 1e3 * histQuantile(b.base.metrics, end.metrics, "harp_epoch_phase_seconds", `phase="epoch",`, 0.99)
	for name, v := range end.metrics {
		if strings.HasPrefix(name, "harp_epoch_degraded_total") {
			out["core.degraded_epochs"] += v
		}
	}
	out["alloc.source_cached"] = delta("harp_alloc_cache_hits_total")
	warm := delta("harp_alloc_warm_start_iters_count")
	out["alloc.source_warm"] = warm
	out["alloc.source_cold"] = delta("harp_alloc_cache_misses_total") - warm
	if warm > 0 {
		out["alloc.lambda_iters_per_solve"] = delta("harp_alloc_warm_start_iters_sum") / warm
	}
	return out, nil
}

// histQuantile estimates a quantile of the observations a Prometheus
// histogram gained between two scrapes, interpolating inside the bucket
// (the upper bound of the last finite bucket stands in for +Inf).
func histQuantile(before, after map[string]float64, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{" + labels + `le="`
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`)
		if le == "+Inf" {
			continue
		}
		var ub float64
		if _, err := fmt.Sscanf(le, "%g", &ub); err != nil {
			continue
		}
		bs = append(bs, bucket{ub, v - before[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	count := strings.TrimSuffix(labels, ",")
	total := after[name+"_count{"+count+"}"] - before[name+"_count{"+count+"}"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.n == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return bs[len(bs)-1].le
}

// daemonAdmit is the session-lifecycle workload: a standing population of
// small-table sessions, and per operation one application that dials,
// receives its first activation, closes, and is seen deregistered.
type daemonAdmit struct {
	daemonBase
	nextPID int
	got     chan harp.Activation
}

// admitTablePoints keeps the population's tables below explore's refinement
// threshold (10 measured points on Raptor Lake): from there on the RM extends
// a table with regression predictions for all 764 vectors, and the workload
// would no longer be the small-frame, small-table path it is meant to be.
const admitTablePoints = 8

func newDaemonAdmit(env runEnv) driver {
	w := &daemonAdmit{nextPID: 100000, got: make(chan harp.Activation, 8)} // 8: an op sees one activation, rarely a second
	w.init(env)
	w.eventsPerOp = 2
	return w
}

func (w *daemonAdmit) setup(m *meter) error {
	n := w.env.pick(128, 12)
	rng := rand.New(rand.NewSource(w.env.seed))
	descs := make([][]byte, n)
	tables := make([]*opoint.Table, n)
	if err := m.time("setup.generate", func() error {
		family, err := admitFamily(w.plat)
		if err != nil {
			return err
		}
		for i := range tables {
			tables[i] = smallTable(w.plat, family, fmt.Sprintf("pop-%03d", i), admitTablePoints, rng)
			var err error
			if descs[i], err = encodeTable(tables[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := m.time("setup.start", func() error { return w.start(true) }); err != nil {
		return err
	}
	if err := m.time("setup.populate", func() error {
		for i := range tables {
			c, inst, err := w.join(tables[i].App, 1000+i, nil)
			if err != nil {
				return err
			}
			if err := c.UploadDescription(bytes.NewReader(descs[i])); err != nil {
				return err
			}
			w.tables[inst] = tables[i]
		}
		return w.awaitReallocations(float64(2 * n))
	}); err != nil {
		return err
	}
	if err := m.time("setup.warmup", func() error {
		for i := 0; i < w.env.pick(128, 4); i++ {
			if err := w.admit(); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	w.dialAck = w.dialAck[:0]
	var err error
	w.base, err = w.readCounters()
	return err
}

// admit is one session lifecycle.
func (w *daemonAdmit) admit() error {
	pid := w.nextPID
	w.nextPID++
	instance := fmt.Sprintf("admit/%d", pid)
	for len(w.got) > 0 {
		<-w.got
	}
	tr := w.env.tr
	t0 := time.Now()
	end := tr.begin("harp.Dial")
	c, err := harp.Dial(w.target.socket(), harp.Registration{
		App: "admit", PID: pid, Adaptivity: harp.Scalable,
		OnActivate: func(a harp.Activation) {
			w.pop.observe(instance, a, false)
			select {
			case w.got <- a:
			default:
			}
		},
	})
	end()
	if err != nil {
		if aerr := w.target.alive(); aerr != nil {
			return errFatal{aerr}
		}
		return err
	}
	w.dialAck = append(w.dialAck, ms(time.Since(t0)))
	end = tr.begin("harp.await-activation")
	act, err := w.await(w.got)
	end()
	end = tr.begin("harp.Close")
	_ = c.Close()
	end()
	w.pop.forget(instance)
	if err != nil {
		return err
	}
	if act.Seq <= 0 || len(act.Cores) == 0 {
		return fmt.Errorf("first activation grants nothing: %+v", act)
	}
	end = tr.begin("harp.await-deregistration")
	defer end()
	deadline := time.Now().Add(opTimeout)
	for {
		gone, err := w.target.sessionGone(instance)
		if err != nil {
			return errFatal{err}
		}
		if gone {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still registered %v after Close", instance, opTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (w *daemonAdmit) op(i int, m *meter) error {
	w.ops++
	if err := m.time("op.daemon-admit", w.admit); err != nil {
		return err
	}
	return w.checkOutputs(i)
}

func (w *daemonAdmit) finish() (finals, error) { return w.daemonFinish() }

func (b *daemonBase) daemonFinish() (finals, error) {
	var f finals
	if msg := b.pop.settledDoubleGrant(200 * time.Millisecond); msg != "" {
		return f, fmt.Errorf("isolation violated at the end of the run: %s", msg)
	}
	var err error
	if f.layer, err = b.layerStats(); err != nil {
		return f, err
	}
	if t, ok := b.target.(*twinTarget); ok && t.solver != nil {
		for k, v := range solverLayer(t.solver.snapshot()) {
			f.layer[k] = v
		}
	}
	if f.layer["core.degraded_epochs"] != 0 {
		return f, fmt.Errorf("%v degraded epochs (must be 0)", f.layer["core.degraded_epochs"])
	}
	var parked int
	if f.energyX, parked, err = b.energyX(); err != nil {
		return f, err
	}
	f.layer["core.parked_sessions"] = float64(parked)
	return f, nil
}

// daemonRetable is the table-upload workload: eight sessions with full
// 764-point descriptions, one of which alternates between two variants that
// flip its optimal vector, so every upload ends in an activation — and
// stamps each upload with a serial number, so every solve misses the
// solution cache.
type daemonRetable struct {
	daemonBase
	active   *harp.Client
	instance string
	got      chan harp.Activation
	variants [2]*stampedTable
	vtables  [2]*opoint.Table
	loaded   int
	serial   int
}

func newDaemonRetable(env runEnv) driver {
	w := &daemonRetable{got: make(chan harp.Activation, 8)} // 8: an op sees one activation
	w.init(env)
	w.eventsPerOp = 1
	return w
}

func (w *daemonRetable) setup(m *meter) error {
	rng := rand.New(rand.NewSource(w.env.seed))
	apps := retableApps
	tables := make([]*opoint.Table, len(apps))
	descs := make([][]byte, len(apps))
	if err := m.time("setup.generate", func() error {
		suite := workload.IntelApps()
		for i, name := range apps {
			prof, err := workload.ByName(suite, name)
			if err != nil {
				return err
			}
			tables[i] = dseTable(w.plat, prof)
		}
		a, b, err := retableVariants(w.plat, tables, rng)
		if err != nil {
			return err
		}
		w.vtables = [2]*opoint.Table{a, b}
		tables[0] = a
		for i, t := range tables {
			if descs[i], err = encodeTable(t); err != nil {
				return err
			}
		}
		for i, v := range w.vtables {
			if w.variants[i], err = newStampedTable(v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := m.time("setup.start", func() error { return w.start(false) }); err != nil {
		return err
	}
	if err := m.time("setup.populate", func() error {
		for i := range tables {
			var ch chan harp.Activation
			if i == 0 {
				ch = w.got
			}
			c, inst, err := w.join(apps[i], 2000+i, ch)
			if err != nil {
				return err
			}
			if i == 0 {
				w.active, w.instance = c, inst
			}
			if err := c.UploadDescription(bytes.NewReader(descs[i])); err != nil {
				return err
			}
			w.tables[inst] = tables[i]
		}
		return w.awaitReallocations(float64(2 * len(tables)))
	}); err != nil {
		return err
	}
	if err := m.time("setup.warmup", func() error {
		for i := 0; i < w.env.pick(40, 4); i++ {
			if err := w.retable(); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var err error
	w.base, err = w.readCounters()
	return err
}

// retable uploads the variant that is not loaded and waits for the
// activation it must cause.
func (w *daemonRetable) retable() error {
	for len(w.got) > 0 {
		<-w.got
	}
	next := 1 - w.loaded
	tr := w.env.tr
	end := tr.begin("harp.UploadDescription")
	w.serial++
	err := w.active.UploadDescription(bytes.NewReader(w.variants[next].next(w.serial)))
	end()
	if err != nil {
		if aerr := w.target.alive(); aerr != nil {
			return errFatal{aerr}
		}
		return err
	}
	w.loaded = next
	w.tables[w.instance] = w.vtables[next]
	end = tr.begin("harp.await-activation")
	_, err = w.await(w.got)
	end()
	return err
}

func (w *daemonRetable) op(i int, m *meter) error {
	w.ops++
	if err := m.time("op.daemon-retable", w.retable); err != nil {
		return err
	}
	return w.checkOutputs(i)
}

func (w *daemonRetable) finish() (finals, error) {
	// Always judge the same final state: variant A loaded.
	if w.loaded != 0 {
		if err := w.retable(); err != nil {
			return finals{}, err
		}
		w.ops++ // the extra upload's epoch, bytes and pushes are in the counters
	}
	return w.daemonFinish()
}
