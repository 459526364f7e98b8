package main

import (
	"fmt"
	"os"
	"strings"
)

// The traced run produces the per-layer metrics. It repeats the workload in
// short phases — untraced against the real system (for the numbers read from
// outside: /proc, /metrics, /debug/vars), then untraced and traced against
// the same in-process system (whose difference is the tracing overhead) —
// runs the per-layer call benchmarks, and writes the spans as a Chrome trace.
// End-to-end numbers never come from here.

// traced returns every per-layer metric for one workload.
func (b *bench) traced(spec workloadSpec, seed int64, seconds float64) (map[string]float64, int, int, error) {
	vals := make(map[string]float64, len(perLayer))
	attempted, failed := 0, 0
	phase := func(env runEnv, share float64, tr *tracer) (*phaseResult, error) {
		lim := limitsFor(spec, seconds*share)
		lim.minOps = (spec.minOps + 9) / 10 // a tenth of the untraced run's floor
		p, err := runPhase(func() driver { return spec.make(env) }, lim, 1, tr)
		if err != nil {
			return nil, err
		}
		attempted += p.attempted
		failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintf(b.stderr, "benchmark: %s (traced run): FAILED %s\n", spec.name, f)
		}
		return p, nil
	}
	merge := func(m map[string]float64) {
		for k, v := range m {
			vals[k] = v
		}
	}

	layers, err := layerBenchmarks(seed, false)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("layer benchmarks: %w", err)
	}
	merge(layers)

	daemon := strings.HasPrefix(spec.name, "daemon-")
	// outside: the system as users run it, observed from outside.
	outside, err := phase(runEnv{seed: seed, harpd: b.harpd}, 0.25, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	merge(benchLayerValues(outside))
	merge(outside.finals.layer)
	// plain / traced: the same in-process system without and with spans.
	plain := outside
	if daemon {
		if plain, err = phase(runEnv{seed: seed}, 0.15, nil); err != nil {
			return nil, 0, 0, err
		}
	}
	tr := newTracer()
	traced, err := phase(runEnv{seed: seed, tr: tr}, 0.2, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	for k, v := range traced.finals.layer { // what only the seams can see
		if strings.HasPrefix(k, "alloc.") || (!daemon && strings.HasPrefix(k, "core.")) {
			vals[k] = v
		}
	}
	spans := tr.closed()
	merge(spanMetrics(spans, traced.attempted))
	if base := plain.opP50Raw * plain.wallFactor; base > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (traced.opP50Raw*traced.wallFactor - base) / base
	}
	if simS := vals["_sim_s_per_pass"]; simS > 0 {
		vals["sim.host_ms_per_sim_s"] = outside.opP50Raw * outside.wallFactor / simS
	}
	vals["bench.build_s"] = b.buildS.Seconds()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := writeChromeTrace(tracePath(spec.name), spans); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(b.stderr, "benchmark: %s: %d spans written to %s\n", spec.name, len(spans), tracePath(spec.name))
	return vals, attempted, failed, nil
}

// spanMetrics derives the per-layer numbers that come from spans.
func spanMetrics(all []span, ops int) map[string]float64 {
	out := map[string]float64{}
	var spans []span // set-up and warm-up spans stay out of the numbers
	for _, s := range all {
		if s.op >= 0 {
			spans = append(spans, s)
		}
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	var opTotal float64
	for _, s := range spans {
		if strings.HasPrefix(s.name, "op.") {
			opTotal += ms(s.end - s.start)
		}
	}
	if solves := spanDurations(spans, "alloc.solve"); len(solves) > 0 {
		out["alloc.solve_ms_p50"] = median(solves)
		if opTotal > 0 {
			out["alloc.solve_share"] = 100 * sum(solves) / opTotal
		}
	}
	for span, metric := range map[string]string{
		"core.Register":    "core.register_ms_p50",
		"core.Deregister":  "core.deregister_ms_p50",
		"core.UploadTable": "core.upload_ms_p50",
		"core.PhaseChange": "core.phase_ms_p50",
		"core.Tick":        "core.tick_ms_p50",
	} {
		if ds := spanDurations(spans, span); len(ds) > 0 {
			out[metric] = median(ds)
		}
	}
	if ticks := spanDurations(spans, "core.Tick"); len(ticks) > 0 {
		out["core.epoch_ms_p99"] = percentile(ticks, 0.99)
	}
	if ticks := spanDurations(spans, "op.churn-10k"); len(ticks) > 0 {
		over := 0
		for _, d := range ticks {
			if d > 50 {
				over++
			}
		}
		out["core.tick_over_50ms_pct"] = 100 * float64(over) / float64(len(ticks))
	}
	if ops > 0 {
		self := selfTimes(spans)
		out["harp.conn_read_ms"] = selfTotal(spans, self, "harp.conn.read") / float64(ops)
		out["harp.conn_write_ms"] = selfTotal(spans, self, "harp.conn.write") / float64(ops)
	}
	return out
}

// solverLayer reports what the allocator seam counted.
func solverLayer(st solveStats) map[string]float64 {
	out := map[string]float64{
		"alloc.source_cold":        float64(st.bySource["cold"]),
		"alloc.source_warm":        float64(st.bySource["warm"]),
		"alloc.source_cached":      float64(st.bySource["cached"]),
		"alloc.source_incremental": float64(st.bySource["incremental"]),
		"alloc.source_sharded":     float64(st.bySource["sharded"]),
	}
	if st.solves > 0 {
		out["alloc.lambda_iters_per_solve"] = float64(st.lambdaIters) / float64(st.solves)
	}
	return out
}
