package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Common run shape: one driver process, closed loop with exactly one
// operation in flight. Every workload goes set-up (several times, median
// reported) → warm-up inside set-up → a measured phase that runs whole
// operations until -seconds have passed.

const (
	// minBatch is the least work between two reference windows: shorter
	// operations are timed individually but batched, so the kernel costs at
	// most ~20 % of a run's wall time.
	minBatch = 40 * time.Millisecond
	// segmentLen is the length of one CPU-accounting segment.
	segmentLen = time.Second
	// setupReps is how many times a run sets the workload up; setup_s is the
	// median, which two slow starts cannot move.
	setupReps = 5
	// opTimeout is how long an operation may wait for its activation before
	// it counts as failed.
	opTimeout = 2 * time.Second
)

// sut is the system under test's resource accounting: harpd's process for
// the daemon workloads, this process for the in-process ones.
type sut interface {
	cpu() (time.Duration, error)
	mem() (memSnap, error)
	rssMB() (float64, error)
}

// selfSUT accounts the benchmark's own process.
type selfSUT struct{}

func (selfSUT) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (selfSUT) mem() (memSnap, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{TotalAlloc: m.TotalAlloc, Mallocs: m.Mallocs, NumGC: m.NumGC, PauseTotalNs: m.PauseTotalNs}, nil
}

// rssMB reads the resident set after a forced collection that returns freed
// memory to the OS: for an in-process system the number is then its live
// state, not the garbage the collector had not got to yet (which made the
// figure swing by 11 % between runs of churn-10k).
func (selfSUT) rssMB() (float64, error) {
	debug.FreeOSMemory()
	st, err := readProcStat(syscall.Getpid())
	if err != nil {
		return 0, err
	}
	return rssMB(st.rssPages), nil
}

// procSUT accounts a harpd child from outside: /proc for CPU and RSS, the
// daemon's own /debug/vars for the Go runtime's allocation counters.
type procSUT struct{ d *daemon }

func (p procSUT) cpu() (time.Duration, error) {
	st, err := readProcStat(p.d.pid())
	if err != nil {
		if aerr := p.d.alive(); aerr != nil {
			return 0, aerr
		}
		return 0, err
	}
	return st.cpu, nil
}

func (p procSUT) mem() (memSnap, error) {
	raw, err := p.d.get("/debug/vars")
	if err != nil {
		return memSnap{}, err
	}
	return parseExpvarMem(raw)
}

func (p procSUT) rssMB() (float64, error) {
	st, err := readProcStat(p.d.pid())
	if err != nil {
		return 0, err
	}
	return rssMB(st.rssPages), nil
}

// errFatal marks an operation error after which the run cannot continue
// (the daemon died, the in-process manager is wedged).
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// finals are the end-of-phase quality numbers and per-layer extras a
// workload reports.
type finals struct {
	energyX float64
	layer   map[string]float64
}

// driver runs one of the four benchmark workloads.
type driver interface {
	// setup builds the system under test up to the first measured operation
	// (inputs, daemon, population, warm-up), timing its steps through m.
	setup(m *meter) error
	// op runs measured operation i and checks its outputs; a returned error
	// counts the operation as failed.
	op(i int, m *meter) error
	// finish computes the end-of-phase numbers (outside any timing).
	finish() (finals, error)
	// teardown releases everything setup created.
	teardown()
	// sut is the accounting handle of the system setup built.
	sut() sut
	// cpuWholeSegment selects how CPU is attributed: a separate process is
	// charged for the whole segment (it may keep working after the driver
	// saw the reply); an in-process system only inside timed sections, so
	// the reference kernel and the driver's bookkeeping stay out.
	cpuWholeSegment() bool
}

// meter times sections, interleaves reference-kernel windows with them and
// keeps the per-segment CPU accounting.
type meter struct {
	sut      sut
	wholeSeg bool
	tr       *tracer
	// refRuns is how many kernel runs one reference window holds.
	refRuns int

	secs      []section
	curOp     int
	batch     int // id of the open batch
	batchOpen bool
	batchWall time.Duration

	windows   []time.Duration // mean of every reference window of the phase
	runs      []time.Duration // every single kernel run of the phase
	lastRefAt time.Time

	segs        []segmentStat
	seg         segmentStat
	segStart    time.Time
	segCPU0     time.Duration
	segmentsOff bool
	accountErr  error
}

func newMeter(s sut, wholeSeg bool, refRuns int, tr *tracer) *meter {
	return &meter{sut: s, wholeSeg: wholeSeg, refRuns: refRuns, tr: tr, curOp: -1}
}

// window takes a reference window, unless one ended within the last half
// millisecond (back-to-back batches share it).
func (m *meter) window() {
	if !m.lastRefAt.IsZero() && time.Since(m.lastRefAt) < 500*time.Microsecond {
		return
	}
	from := len(m.runs)
	m.runs = refSample(m.refRuns, m.runs)
	m.windows = append(m.windows, meanDuration(m.runs[from:]))
	m.lastRefAt = time.Now()
}

func (m *meter) sutCPU() time.Duration {
	c, err := m.sut.cpu()
	if err != nil && m.accountErr == nil {
		m.accountErr = err
	}
	return c
}

// time runs fn as one timed section of the current operation. Sections are
// grouped into batches of at least minBatch, with a reference window before
// and after each, so the windows sample the machine's speed evenly across
// the phase.
func (m *meter) time(name string, fn func() error) error {
	if !m.batchOpen {
		m.window()
		m.batchOpen = true
		if m.segStart.IsZero() && !m.segmentsOff {
			m.segStart = time.Now()
			if m.wholeSeg {
				m.segCPU0 = m.sutCPU()
			}
		}
	}
	var cpu0 time.Duration
	if !m.wholeSeg {
		cpu0 = m.sutCPU()
	}
	end := m.tr.begin(name)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	end()
	if !m.wholeSeg {
		m.seg.cpu += m.sutCPU() - cpu0
	}
	m.secs = append(m.secs, section{op: m.curOp, batch: m.batch, wall: wall})
	m.batchWall += wall
	if m.batchWall >= minBatch {
		m.closeBatch()
	}
	return err
}

// closeBatch ends the open batch with its closing reference window.
func (m *meter) closeBatch() {
	if !m.batchOpen {
		return
	}
	m.window()
	m.batchOpen = false
	m.batchWall = 0
	m.batch++
}

func (m *meter) closeSegment() {
	if m.wholeSeg {
		now := m.sutCPU()
		m.seg.cpu = now - m.segCPU0
		m.segCPU0 = now
	}
	m.segs = append(m.segs, m.seg)
	m.seg = segmentStat{}
	m.segStart = time.Now()
}

func (m *meter) beginOp(i int) {
	m.curOp = i
	m.tr.setOp(i)
}

// endOp ends the current operation and, once the CPU segment is long
// enough, the segment: segments hold whole operations only.
func (m *meter) endOp() {
	m.seg.ops++
	m.curOp = -1
	m.tr.setOp(-1)
	if !m.segmentsOff && time.Since(m.segStart) >= segmentLen {
		m.closeSegment()
	}
}

// flush closes the open batch and the open segment.
func (m *meter) flush() {
	m.closeBatch()
	if !m.segmentsOff && m.seg.ops > 0 {
		m.closeSegment()
	}
}

// setupSeconds sums the set-up sections: scaled by the phase's wall factor,
// and as measured.
func (m *meter) setupSeconds() (norm, raw float64) {
	for _, s := range m.secs {
		if s.op < 0 {
			raw += s.wall.Seconds()
		}
	}
	return raw * wallFactor(m.windows), raw
}

// limits bound a measured phase: whole operations run until the time budget
// is spent (at least minOps of them), or exactly maxOps when it is set — the
// unit tests' and smoke runs' fixed count.
type limits struct {
	seconds float64
	minOps  int
	maxOps  int
	// refRuns sizes the reference windows (kernel runs per window).
	refRuns int
}

// phaseResult is everything one measured phase produced.
type phaseResult struct {
	attempted, failed int
	failures          []string
	setupS, setupRawS float64
	opRaw             []float64 // ms per operation, as measured
	opP50Raw          float64   // batch-mean median, see opMedian
	cpuRaw            float64   // ms per op, segment median
	wallFactor        float64   // × raw wall time = normalised
	cpuFactor         float64   // × raw CPU time = normalised
	allocKB, mallocs  float64   // per op
	gcPer1k, gcPause  float64
	rss               float64
	refs              []float64 // ms
	steal             float64
	finals            finals
	measured          time.Duration
}

// runPhase sets the workload up setupReps times, measures it and tears it
// down. mk builds a fresh workload instance for each set-up.
func runPhase(mk func() driver, lim limits, reps int, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{}
	var w driver
	var setupNorm, setupRaw []float64
	for rep := 0; rep < reps; rep++ {
		w = mk()
		sm := newMeter(selfSUT{}, false, lim.refRuns, nil)
		sm.segmentsOff = true
		if err := w.setup(sm); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sm.flush()
		n, r := sm.setupSeconds()
		setupNorm = append(setupNorm, n)
		setupRaw = append(setupRaw, r)
		if rep < reps-1 {
			w.teardown()
		}
	}
	defer w.teardown()
	res.setupS, res.setupRawS = median(setupNorm), median(setupRaw)

	m := newMeter(w.sut(), w.cpuWholeSegment(), lim.refRuns, tr)
	steal0, _ := readCPUTimes()
	mem0, err := w.sut().mem()
	if err != nil {
		return nil, err
	}
	if f, ok := w.(interface{ fixedOps(seconds float64) int }); ok && lim.maxOps == 0 {
		lim.maxOps = f.fixedOps(lim.seconds)
	}
	start := time.Now()
	budget := time.Duration(lim.seconds * float64(time.Second))
	for i := 0; ; i++ {
		if lim.maxOps > 0 {
			if i >= lim.maxOps {
				break
			}
		} else if i >= lim.minOps && time.Since(start) >= budget {
			break
		}
		m.beginOp(i)
		err := w.op(i, m)
		m.endOp()
		res.attempted++
		if err != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("op %d: %v", i, err))
			}
			var fatal errFatal
			if errors.As(err, &fatal) {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	m.flush()
	res.measured = time.Since(start)
	mem1, err := w.sut().mem()
	if err != nil {
		return nil, err
	}
	steal1, _ := readCPUTimes()
	if m.accountErr != nil {
		return nil, fmt.Errorf("CPU accounting: %w", m.accountErr)
	}
	if res.rss, err = w.sut().rssMB(); err != nil {
		return nil, err
	}

	ops := float64(res.attempted)
	res.opRaw = opTimes(m.secs)
	res.opP50Raw = opMedian(m.secs)
	res.cpuRaw = segmentMedian(m.segs)
	res.wallFactor, res.cpuFactor = wallFactor(m.windows), cpuFactor(m.runs)
	res.allocKB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / ops
	res.mallocs = float64(mem1.Mallocs-mem0.Mallocs) / ops
	res.gcPer1k = 1000 * float64(mem1.NumGC-mem0.NumGC) / ops
	res.gcPause = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	res.steal = stealPct(steal0, steal1)
	for _, r := range m.runs {
		res.refs = append(res.refs, ms(r))
	}
	if res.finals, err = w.finish(); err != nil {
		return nil, fmt.Errorf("finish: %w (failed ops: %v)", err, res.failures)
	}
	return res, nil
}
