// Command benchmark is the repository's benchmark: four long closed-loop
// workloads against the real harpd and the in-process manager and simulator,
// six speed-normalised end-to-end metrics per workload, exact counts, and a
// separate traced run that attributes the time to layers from outside the
// product code. See README.md in this directory.
//
// The driver contract (BENCHMARK.json) runs it one workload at a time:
//
//	bash benchmark/run.sh --workload daemon-admit --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output, one JSON object. Without
// --workload it runs all four and prints a table; -aa N runs N sets of that
// and reports how well two sets of the same code agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	aaRuns   int
	printRaw bool
}

func realMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file")
	fs.IntVar(&o.aa, "aa", 0, "run N sets of the whole benchmark on the same code and compare them")
	fs.IntVar(&o.aaRuns, "aa-runs", 5, "runs per set in -aa mode")
	fs.BoolVar(&o.printRaw, "print-raw", false, "also print the un-normalised timings on a line of their own (used by -aa)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || o.seconds > 120 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be in (0, 120]")
		return 2
	}

	// One driver process on at most two Ps, whatever the host offers.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	// No exit path leaves a daemon behind: normal return and panic go
	// through the deferred kill, SIGINT/SIGTERM through the handler.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAllDaemons()
		os.Exit(130)
	}()
	defer func() {
		killAllDaemons()
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "benchmark: panic: %v\n", r)
			code = 3
		}
	}()

	b := &bench{o: o, stdout: stdout, stderr: stderr}
	var err error
	if b.harpd, b.buildS, err = buildHarpd(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case o.aa > 0:
		return b.runAA()
	case o.workload == "":
		return b.runAll()
	default:
		return b.runOne()
	}
}

// bench is one invocation.
type bench struct {
	o      options
	harpd  string
	buildS time.Duration
	stdout io.Writer
	stderr io.Writer
}

func limitsFor(spec workloadSpec, seconds float64) limits {
	return limits{seconds: seconds, minOps: spec.minOps, refRuns: spec.refRuns}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's output object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndValues maps a measured phase onto the six end-to-end metrics.
func endToEndValues(p *phaseResult) map[string]float64 {
	return map[string]float64{
		"setup_s":         p.setupS,
		"op_ms_p50":       p.opP50Raw * p.wallFactor,
		"cpu_ms_per_op":   p.cpuRaw * p.cpuFactor,
		"alloc_kb_per_op": p.allocKB,
		"rss_mb":          p.rss,
		"energy_x":        p.finals.energyX,
	}
}

// benchLayerValues are the ungated raw and tail numbers every measured
// phase yields.
func benchLayerValues(p *phaseResult) map[string]float64 {
	refP50 := median(p.refs)
	out := map[string]float64{
		"bench.ref_ms_p50":       refP50,
		"bench.steal_pct":        p.steal,
		"bench.op_ms_p99":        percentile(p.opRaw, 0.99) * p.wallFactor,
		"bench.op_ms_p50_raw":    median(p.opRaw),
		"bench.op_ms_p90_raw":    percentile(p.opRaw, 0.90),
		"runtime.mallocs_per_op": p.mallocs,
		"runtime.gc_per_1k_ops":  p.gcPer1k,
		"runtime.gc_pause_ms":    p.gcPause,
	}
	if refP50 > 0 {
		out["bench.ref_slowdown_p90"] = percentile(p.refs, 0.90) / refP50
	}
	return out
}

// measure runs one untraced measured phase of a workload.
func (b *bench) measure(spec workloadSpec, seed int64, seconds float64) (*phaseResult, error) {
	env := runEnv{seed: seed, harpd: b.harpd}
	return runPhase(func() driver { return spec.make(env) }, limitsFor(spec, seconds), setupReps, nil)
}

// runOne is the driver-contract mode: one workload, one JSON line.
func (b *bench) runOne() int {
	spec, ok := findWorkload(b.o.workload)
	if !ok {
		fmt.Fprintf(b.stderr, "benchmark: unknown workload %q\n", b.o.workload)
		return 2
	}
	res := result{Metrics: map[string]value{}}
	if b.o.trace != 0 {
		vals, attempted, failed, err := b.traced(spec, b.o.seed, b.o.seconds)
		if err != nil {
			fmt.Fprintf(b.stderr, "benchmark: %s (traced): %v\n", spec.name, err)
			return 1
		}
		res.Attempted, res.Failed = attempted, failed
		for _, m := range perLayer {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	} else {
		p, err := b.measure(spec, b.o.seed, b.o.seconds)
		if err != nil {
			fmt.Fprintf(b.stderr, "benchmark: %s: %v\n", spec.name, err)
			return 1
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		vals := endToEndValues(p)
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		printPhase(b.stdout, spec.name, p)
		if b.o.printRaw {
			raw, _ := json.Marshal(rawValues(p))
			fmt.Fprintf(b.stdout, "%s%s\n", rawPrefix, raw)
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(b.stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(b.stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printPhase prints one workload's end-to-end metrics by name and unit, with
// the operation and failure counts beside them.
func printPhase(w io.Writer, name string, p *phaseResult) {
	fmt.Fprintf(w, "%s: ops %d, failed/attempted %d/%d, measured %.1f s\n",
		name, p.attempted, p.failed, p.attempted, p.measured.Seconds())
	vals := endToEndValues(p)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, vals[m.name], m.unit)
	}
	layer := benchLayerValues(p)
	fmt.Fprintf(w, "  (raw op p50 %.3f ms, p90 %.3f ms; normalised p99 %.3f ms over %d ops; ref kernel p50 %.3f ms; steal %.1f %%)\n",
		layer["bench.op_ms_p50_raw"], layer["bench.op_ms_p90_raw"], layer["bench.op_ms_p99"], len(p.opRaw),
		layer["bench.ref_ms_p50"], layer["bench.steal_pct"])
	for _, f := range p.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// runAll is the human mode: every workload once, a table, non-zero exit on
// any failed operation.
func (b *bench) runAll() int {
	code := 0
	for _, spec := range workloads {
		if b.o.trace != 0 {
			vals, attempted, failed, err := b.traced(spec, b.o.seed, b.o.seconds)
			if err != nil {
				fmt.Fprintf(b.stderr, "benchmark: %s (traced): %v\n", spec.name, err)
				return 1
			}
			fmt.Fprintf(b.stdout, "%s (traced): failed/attempted %d/%d\n", spec.name, failed, attempted)
			for _, m := range perLayer {
				fmt.Fprintf(b.stdout, "  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
			}
			if failed > 0 {
				code = 1
			}
			continue
		}
		p, err := b.measure(spec, b.o.seed, b.o.seconds)
		if err != nil {
			fmt.Fprintf(b.stderr, "benchmark: %s: %v\n", spec.name, err)
			return 1
		}
		printPhase(b.stdout, spec.name, p)
		if p.failed > 0 {
			code = 1
		}
	}
	return code
}

// tracePath is where a workload's Chrome trace lands.
func tracePath(workload string) string {
	return filepath.Join(buildDir, "trace-"+workload+".json")
}
