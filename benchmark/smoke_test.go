package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/platform"
)

// inTempDir runs the test from a fresh directory, because the workloads put
// their sockets and state under the relative buildDir.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

// TestWorkloadSmoke runs a fixed-count, in-process smoke of every workload —
// the daemon workloads against the twin, all at reduced populations — and
// checks the run shape: no failed operation, every end-to-end metric
// positive, the per-workload checks executed. No assertion depends on the
// wall clock.
func TestWorkloadSmoke(t *testing.T) {
	inTempDir(t)
	for _, spec := range workloads {
		ops := 20
		if spec.name == "paper-eval" {
			ops = 2
		}
		env := runEnv{seed: 11, small: true}
		p, err := runPhase(func() driver { return spec.make(env) },
			limits{maxOps: ops, refRuns: 1}, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if p.attempted != ops || p.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed (%v), want %d and 0", spec.name, p.attempted, p.failed, p.failures, ops)
		}
		for name, v := range endToEndValues(p) {
			if !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", spec.name, name, v)
			}
		}
		if len(p.opRaw) != ops {
			t.Errorf("%s: %d operation timings for %d operations", spec.name, len(p.opRaw), ops)
		}
		if d := p.finals.layer["core.degraded_epochs"]; d != 0 {
			t.Errorf("%s: %v degraded epochs", spec.name, d)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(buildDir, "tmp", "*")); len(left) != 0 {
		t.Errorf("workloads left temp dirs behind: %v", left)
	}
}

// TestTracedSmoke runs the traced twin of a daemon workload and of churn-10k
// and checks that the seams produced spans and the trace file loads.
func TestTracedSmoke(t *testing.T) {
	inTempDir(t)
	for _, name := range []string{"daemon-admit", "churn-10k"} {
		spec, _ := findWorkload(name)
		tr := newTracer()
		env := runEnv{seed: 5, small: true, tr: tr}
		p, err := runPhase(func() driver { return spec.make(env) }, limits{maxOps: 8, refRuns: 1}, 1, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.failed != 0 {
			t.Fatalf("%s: failed ops: %v", name, p.failures)
		}
		spans := tr.closed()
		names := map[string]int{}
		for _, s := range spans {
			names[s.name]++
			if s.end < s.start {
				t.Fatalf("span %q ends before it starts", s.name)
			}
		}
		want := []string{"op." + name, "alloc.solve"}
		if name == "daemon-admit" {
			want = append(want, "harp.Dial", "harp.Close", "harp.conn.read", "harp.conn.write")
		} else {
			want = append(want, "core.Register", "core.UploadTable", "core.Tick")
		}
		for _, w := range want {
			if names[w] == 0 {
				t.Errorf("%s: no %q span (have %v)", name, w, names)
			}
		}
		m := spanMetrics(spans, p.attempted)
		if !(m["alloc.solve_ms_p50"] > 0) || !(m["alloc.solve_share"] > 0) {
			t.Errorf("%s: solve metrics %v", name, m)
		}
		if p.finals.layer["alloc.source_cold"]+p.finals.layer["alloc.source_warm"]+p.finals.layer["alloc.source_cached"]+
			p.finals.layer["alloc.source_sharded"]+p.finals.layer["alloc.source_incremental"] == 0 {
			t.Errorf("%s: the allocator seam counted no solves: %v", name, p.finals.layer)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := writeChromeTrace(path, spans); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]int `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace file does not load: %v", err)
		}
		if len(doc.TraceEvents) != len(spans) || doc.TraceEvents[0].Ph != "X" {
			t.Errorf("trace file has %d events for %d spans", len(doc.TraceEvents), len(spans))
		}
	}
}

func TestLayerBenchmarksEmitTheirMetrics(t *testing.T) {
	inTempDir(t)
	got, err := layerBenchmarks(3, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		switch strings.SplitN(m.name, ".", 2)[0] {
		case "proto", "opoint", "telemetry", "regress", "monitor", "cluster":
		default:
			continue
		}
		if _, ok := got[m.name]; !ok {
			t.Errorf("layer benchmarks did not report %s", m.name)
		}
	}
	for _, name := range []string{
		"alloc.cold_5x764_us", "alloc.warm_5x764_us", "alloc.cachehit_ns", "alloc.greedy_5x764_us",
		"alloc.fingerprint_us", "alloc.sharded_10k_ms", "alloc.incremental_10k_ms",
		"store.append_small_us", "store.append_table764_us", "store.snapshot_10k_ms", "store.replay_ms_per_1k",
		"core.export_state_10k_ms", "sim.step_us", "proto.table764_bytes", "opoint.front_len",
	} {
		if !(got[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
	for name := range got {
		found := false
		for _, m := range perLayer {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("layer benchmarks report %s, which BENCHMARK.json does not list", name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	d := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{id: 1, name: "op", start: d(0), end: d(100)},
		{id: 2, parent: 1, name: "solve", start: d(10), end: d(40)},
		{id: 3, parent: 1, name: "solve", start: d(30), end: d(60)}, // overlaps span 2
		{id: 4, parent: 1, name: "wait", start: d(90), end: d(150)}, // outlives its parent
		{id: 5, parent: 2, name: "inner", start: d(15), end: d(20)},
	}
	self := selfTimes(spans)
	if self[1] != d(100-50-10) {
		t.Errorf("op self time %v, want 40ms", self[1])
	}
	if self[2] != d(25) || self[5] != d(5) {
		t.Errorf("solve self %v, inner self %v", self[2], self[5])
	}
	if got := selfTotal(spans, self, "solve"); !near(got, 25+30) {
		t.Errorf("solve self total %v ms, want 55", got)
	}
	if got := spanDurations(spans, "solve"); len(got) != 2 || !near(got[0], 30) {
		t.Errorf("solve durations %v", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	tr.setOp(3)
	tr.begin("x")()
	tr.beginAsync("y")()
	if tr.closed() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestActivationChecks(t *testing.T) {
	plat := platform.RaptorLake()
	good := harp.Activation{Seq: 1, VectorKey: "0,1|2", Threads: 4, Cores: []harp.CoreGrant{{Core: 0, Threads: 2}, {Core: 8, Threads: 1}, {Core: 9, Threads: 1}}}
	if err := checkActivation(plat, good); err != nil {
		t.Fatalf("valid activation rejected: %v", err)
	}
	for name, bad := range map[string]harp.Activation{
		"core off the platform": {Seq: 1, VectorKey: "0,0|1", Cores: []harp.CoreGrant{{Core: 99, Threads: 1}}},
		"too many threads":      {Seq: 1, VectorKey: "0,0|1", Cores: []harp.CoreGrant{{Core: 8, Threads: 2}}},
		"unparsable vector":     {Seq: 1, VectorKey: "x", Cores: nil},
		"grant ≠ vector":        {Seq: 1, VectorKey: "0,0|2", Cores: []harp.CoreGrant{{Core: 8, Threads: 1}}},
	} {
		if err := checkActivation(plat, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	pop := newPopulation(plat)
	pop.observe("a/1", harp.Activation{Seq: 5, VectorKey: "0,0|1", Cores: []harp.CoreGrant{{Core: 8, Threads: 1}}}, true)
	pop.observe("b/2", harp.Activation{Seq: 6, VectorKey: "0,0|1", Cores: []harp.CoreGrant{{Core: 9, Threads: 1}}}, true)
	if msg := pop.doubleGrant(); msg != "" {
		t.Fatalf("disjoint grants flagged: %s", msg)
	}
	if v := pop.takeViolations(); len(v) != 0 || pop.fanout() != 2 {
		t.Fatalf("violations %v, fan-out %d", v, pop.fanout())
	}
	pop.observe("b/2", harp.Activation{Seq: 6, VectorKey: "0,0|1", Cores: []harp.CoreGrant{{Core: 8, Threads: 1}}}, true)
	if v := pop.takeViolations(); len(v) != 1 || !strings.Contains(v[0], "seq") {
		t.Errorf("non-increasing seq not reported: %v", v)
	}
	if msg := pop.settledDoubleGrant(2 * time.Millisecond); !strings.Contains(msg, "core 8") {
		t.Errorf("double grant not reported: %q", msg)
	}
	pop.observe("b/2", harp.Activation{Seq: 7, VectorKey: "0,0|1", CoAllocated: true, Cores: []harp.CoreGrant{{Core: 8, Threads: 1}}}, true)
	if msg := pop.doubleGrant(); msg != "" {
		t.Errorf("co-allocated sharing flagged: %s", msg)
	}
	pop.forget("a/1")
	if len(pop.standing()) != 1 {
		t.Errorf("standing = %v", pop.standing())
	}
}
