package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/monitor"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/regress"
	"github.com/harp-rm/harp/internal/sched"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// The per-layer call benchmarks: each module's public functions called
// directly, on inputs generated from the seed, each timing bracketed by
// reference windows like everything else. They run in the traced run only
// and are not gated; they exist so a later change to one layer can show
// where its saving appears (and so ROADMAP items that have no end-to-end
// workload yet — fleet, telemetry at 10k — have a baseline).

const layerRefRuns = 4

// timeCalls measures fn's per-call duration in nanoseconds: batches of
// `batch` calls until budget is spent (at least three batches), the median
// batch mean, normalised by reference windows around the whole measurement.
// setup, when given, runs untimed before every call.
func timeCalls(budget time.Duration, batch int, setup, fn func()) float64 {
	windows := []time.Duration{meanDuration(refSample(layerRefRuns, nil))}
	var means []float64
	start := time.Now()
	for len(means) < 3 || time.Since(start) < budget {
		var total time.Duration
		for i := 0; i < batch; i++ {
			if setup != nil {
				setup()
			}
			t0 := time.Now()
			fn()
			total += time.Since(t0)
		}
		means = append(means, float64(total.Nanoseconds())/float64(batch))
		if len(means) >= 1000 {
			break
		}
	}
	windows = append(windows, meanDuration(refSample(layerRefRuns, nil)))
	return median(means) * wallFactor(windows)
}

// layerBenchmarks runs every call benchmark and returns the metrics it
// owns. scale < 1 shrinks the 10k-session fixtures (unit-test smoke).
func layerBenchmarks(seed int64, small bool) (map[string]float64, error) {
	out := map[string]float64{}
	budget := 60 * time.Millisecond
	if small {
		budget = 2 * time.Millisecond
	}
	plat := platform.RaptorLake()
	suite := workload.IntelApps()
	rng := rand.New(rand.NewSource(seed))

	var tables []*opoint.Table
	for _, name := range retableApps[:5] {
		prof, err := workload.ByName(suite, name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, dseTable(plat, prof))
	}
	tbl := tables[0]

	// proto: the small push frame and the large upload frame.
	act := proto.Activate{Seq: 42, VectorKey: "0,2|4", Threads: 8}
	for c := 0; c < 6; c++ {
		act.Cores = append(act.Cores, proto.CoreGrant{Core: c, Threads: 1})
	}
	var actFrame, tblFrame bytes.Buffer
	if err := proto.Write(&actFrame, proto.MsgActivate, act); err != nil {
		return nil, err
	}
	if err := proto.Write(&tblFrame, proto.MsgOperatingPoints, proto.OperatingPoints{Table: tbl}); err != nil {
		return nil, err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	decode := func(frame []byte, typ proto.MsgType, into any) {
		env, err := proto.Read(bytes.NewReader(frame))
		if err == nil {
			err = proto.DecodeBody(env, typ, into)
		}
		note(err)
	}
	out["proto.encode_activate_ns"] = timeCalls(budget, 200, nil, func() { note(proto.Write(io.Discard, proto.MsgActivate, act)) })
	out["proto.decode_activate_ns"] = timeCalls(budget, 200, nil, func() {
		var a proto.Activate
		decode(actFrame.Bytes(), proto.MsgActivate, &a)
	})
	out["proto.encode_table764_us"] = timeCalls(budget, 2, nil, func() {
		note(proto.Write(io.Discard, proto.MsgOperatingPoints, proto.OperatingPoints{Table: tbl}))
	}) / 1e3
	decodeTable := func() {
		var up proto.OperatingPoints
		decode(tblFrame.Bytes(), proto.MsgOperatingPoints, &up)
	}
	out["proto.decode_table764_us"] = timeCalls(budget, 2, nil, decodeTable) / 1e3
	out["proto.table764_bytes"] = float64(tblFrame.Len())
	out["proto.decode_table764_allocs"] = testing.AllocsPerRun(3, decodeTable)

	// opoint: the table layer on a 764-point description.
	desc, err := encodeTable(tbl)
	if err != nil {
		return nil, err
	}
	work := tbl.Clone()
	out["opoint.pareto_764_us"] = timeCalls(budget, 2, nil, func() { opoint.Pareto(work.Points, opoint.RuntimeObjectives) }) / 1e3
	out["opoint.validate_764_us"] = timeCalls(budget, 4, work.Invalidate, func() { note(work.Validate(plat)) }) / 1e3
	mid := work.Points[len(work.Points)/2]
	out["opoint.upsert_ns"] = timeCalls(budget, 50, nil, func() { work.Upsert(mid) })
	out["opoint.load_764_us"] = timeCalls(budget, 2, nil, func() {
		_, err := opoint.Load(bytes.NewReader(desc))
		note(err)
	}) / 1e3
	out["opoint.front_len"] = float64(len(tbl.ParetoPoints()))

	// alloc: the existing solve regimes on 5 apps × 764 points.
	inputs := make([]alloc.AppInput, len(tables))
	for i, t := range tables {
		inputs[i] = alloc.AppInput{ID: t.App, Table: t.Clone()}
	}
	up := false
	perturb := func() { // cycles one point between two values: every solve misses
		pt := inputs[0].Table.Points[0]
		if up = !up; up {
			pt.Utility *= 1.01
		} else {
			pt.Utility /= 1.01
		}
		inputs[0].Table.Upsert(pt)
		inputs[0].Table.ParetoPoints()
	}
	solver := func(opts ...alloc.Option) *alloc.Allocator {
		a, err := alloc.New(plat, opts...)
		note(err)
		if err == nil {
			_, err = a.Allocate(inputs)
			note(err)
		}
		return a
	}
	solve := func(a *alloc.Allocator, want string) func() {
		return func() {
			_, st, err := a.AllocateWithStats(inputs)
			note(err)
			if err == nil && want != "" && st.Source != want {
				note(fmt.Errorf("alloc layer benchmark: solve source %q, want %q", st.Source, want))
			}
		}
	}
	cold := solver()
	if failed != nil {
		return nil, failed
	}
	out["alloc.cold_5x764_us"] = timeCalls(budget, 1, nil, solve(cold, alloc.SourceCold)) / 1e3
	out["alloc.cold_allocs_per_op"] = testing.AllocsPerRun(3, solve(cold, ""))
	out["alloc.warm_5x764_us"] = timeCalls(budget, 1, perturb, solve(solver(alloc.WithWarmStart(true)), alloc.SourceWarm)) / 1e3
	out["alloc.greedy_5x764_us"] = timeCalls(budget, 2, nil, solve(solver(alloc.WithMethod(alloc.Greedy)), "")) / 1e3
	out["alloc.cachehit_ns"] = timeCalls(budget, 200, nil, solve(solver(alloc.WithCache(alloc.DefaultCacheSize)), alloc.SourceCached))
	// The fingerprint of a solve whose one table just changed, read from the
	// solver's own phase histogram.
	fpMetrics := telemetry.NewMetrics(telemetry.NewRegistry())
	fp := solver(alloc.WithCache(alloc.DefaultCacheSize), alloc.WithTracer(telemetry.NewTracer(0)), alloc.WithMetrics(fpMetrics))
	timeCalls(budget, 1, perturb, solve(fp, ""))
	if h := fpMetrics.EpochPhase.With(telemetry.PhaseFingerprint); h.Count() > 0 {
		out["alloc.fingerprint_us"] = 1e6 * h.Sum() / float64(h.Count())
	}

	// telemetry: the per-event and per-epoch costs of the always-on pieces.
	tracer := telemetry.NewTracer(0)
	ev := telemetry.Event{Kind: telemetry.EvMeasureSample, Instance: "app/1", App: "app", Utility: 1, Power: 2}
	out["telemetry.emit_ns"] = timeCalls(budget, 500, nil, func() { tracer.Emit(ev) })
	journal := telemetry.NewJournal(io.Discard)
	rec := telemetry.EpochRecord{Trigger: "register", SolveSource: alloc.SourceWarm}
	for i := 0; i < 8; i++ {
		inst := fmt.Sprintf("app-%d/%d", i, 1000+i)
		rec.Inputs = append(rec.Inputs, telemetry.EpochInput{Instance: inst, App: inst[:5], Stage: "stable", Utility: 1, PowerW: 2})
		rec.Outputs = append(rec.Outputs, telemetry.EpochOutput{Instance: inst, Seq: i + 1, Vector: "0,2|4", Threads: 8, Cores: 6})
	}
	out["telemetry.journal_epoch_us"] = timeCalls(budget, 20, nil, func() { note(journal.Record(rec)) }) / 1e3

	// regress / sim / monitor: the simulator-side layers paper-eval spends
	// its time in.
	x := make([][]float64, 25)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = []float64{float64(rng.Intn(9)), float64(rng.Intn(9)), float64(rng.Intn(17))}
		y[i] = 1 + x[i][0] + 0.5*x[i][1] + 0.3*x[i][2] + 0.1*rng.Float64()
	}
	out["regress.fit_us"] = timeCalls(budget, 5, nil, func() { note(regress.NewPolynomial(2).Fit(x, y)) }) / 1e3
	machine, err := sim.New(plat, sched.CFS{}, sim.WithGovernor(sim.GovernorPowersave))
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(machine, monitor.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"bt.C", "sp.C"} { // the longest-running pair
		prof, err := workload.ByName(suite, name)
		if err != nil {
			return nil, err
		}
		p, err := machine.Start(prof, name)
		if err != nil {
			return nil, err
		}
		if err := mon.Track(p.ID()); err != nil {
			return nil, err
		}
	}
	out["sim.step_us"] = timeCalls(budget, 50, nil, func() { note(machine.Step()) }) / 1e3
	out["monitor.sample_us"] = timeCalls(budget, 20, func() { note(machine.Step()) }, func() { mon.Sample() }) / 1e3

	if err := storeLayer(out, tbl, budget, note); err != nil {
		return nil, err
	}
	if err := scaleLayer(out, seed, small, note); err != nil {
		return nil, err
	}
	return out, failed
}

// storeLayer measures the durable store as the manager drives it: a
// core.Manager whose StateSink is the traced wrapper around a real
// *store.Store, cycled through register / upload / deregister, so the append
// spans are taken in situ; then the WAL it wrote is replayed.
func storeLayer(out map[string]float64, tbl *opoint.Table, budget time.Duration, note func(error)) error {
	dir, err := tempDir("s")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	tr := newTracer()
	mgr, err := core.NewManager(core.Config{
		Platform: platform.RaptorLake(), DisableExploration: true,
		Store: tracedSink{inner: st, tr: tr},
	})
	if err != nil {
		st.Close()
		return err
	}
	windows := []time.Duration{meanDuration(refSample(layerRefRuns, nil))}
	start := time.Now()
	cycles := 0
	for cycles < 8 || time.Since(start) < 2*budget {
		inst := fmt.Sprintf("%s/%d", tbl.App, cycles)
		note(mgr.Register(inst, tbl.App, workload.Scalable, false))
		note(mgr.UploadTable(inst, tbl))
		note(mgr.Deregister(inst))
		cycles++
	}
	factor := wallFactor(append(windows, meanDuration(refSample(layerRefRuns, nil))))
	spans := tr.closed()
	out["store.append_small_us"] = 1e3 * median(spanDurations(spans, "store.append")) * factor
	out["store.append_table764_us"] = 1e3 * median(spanDurations(spans, "store.append.table")) * factor
	if err := st.Close(); err != nil {
		return err
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	var records int
	perReplay := timeCalls(budget, 1, nil, func() {
		n, _, err := store.ReplayWAL(bytes.NewReader(wal), nil)
		note(err)
		records = n
	})
	if records > 0 {
		out["store.replay_ms_per_1k"] = perReplay / 1e6 * 1000 / float64(records)
	}
	return nil
}

// scaleLayer measures the 10k-session costs no end-to-end workload isolates:
// a full sharded solve and an incremental re-solve over 10k inputs, the
// manager's state export, a store snapshot and a /metrics scrape at 10k
// sessions, and a 64-machine fleet tick.
func scaleLayer(out map[string]float64, seed int64, small bool, note func(error)) error {
	sessions, machines, ticks := 10000, 64, 24
	if small {
		sessions, machines, ticks = 300, 4, 8
	}
	plat := harpsim.ChurnPlatform(4, 8)
	rng := rand.New(rand.NewSource(seed))
	tables := churnTables(plat, churnApps, rng)
	inputs := make([]alloc.AppInput, sessions)
	for i := range inputs {
		inputs[i] = alloc.AppInput{ID: fmt.Sprintf("s%06d", i), Table: tables[fmt.Sprintf("churn-app-%d", i%churnApps)]}
	}
	once := func(fn func()) float64 { // ms, normalised; heavy calls run three times
		return timeCalls(0, 1, nil, fn) / 1e6
	}

	sharded, err := alloc.NewSharded(plat, 2, 0)
	if err != nil {
		return err
	}
	out["alloc.sharded_10k_ms"] = once(func() {
		_, _, err := sharded.AllocateWithStats(inputs)
		note(err)
	})
	inc, err := alloc.New(plat, alloc.WithIncremental(true))
	if err != nil {
		return err
	}
	if _, err := inc.Allocate(inputs); err != nil {
		return err
	}
	next := 0
	incremental := true
	out["alloc.incremental_10k_ms"] = timeCalls(0, 1, func() {
		// Ten sessions change application (and so table) before each solve.
		for k := 0; k < 10; k++ {
			i := (next*10 + k) % sessions
			inputs[i].Table = tables[fmt.Sprintf("churn-app-%d", (i+1+next)%churnApps)]
		}
		next++
	}, func() {
		_, st, err := inc.AllocateWithStats(inputs)
		note(err)
		if st.Source != alloc.SourceIncremental {
			incremental = false
		}
	}) / 1e6
	if !incremental {
		out["alloc.incremental_10k_ms"] = 0 // the path under measurement did not run
	}

	// One manager at 10k sessions with metrics on serves the export, the
	// snapshot and the scrape.
	reg := telemetry.NewRegistry()
	mgr, err := core.NewManager(core.Config{
		Platform: plat, DisableExploration: true,
		Coalesce: core.CoalescePolicy{Enabled: true}, ShardedAlloc: true, ShardParallelism: 2,
		Metrics: telemetry.NewMetrics(reg), Tracer: telemetry.NewTracer(0),
	})
	if err != nil {
		return err
	}
	for i := 0; i < sessions; i++ {
		id, app := fmt.Sprintf("s%06d", i), fmt.Sprintf("churn-app-%d", i%churnApps)
		note(mgr.Register(id, app, workload.Scalable, false))
		note(mgr.UploadTable(id, tables[app]))
		note(mgr.Measure(id, 1+rng.Float64(), 2+rng.Float64()))
	}
	note(mgr.Flush())
	out["core.export_state_10k_ms"] = once(func() { mgr.ExportState() })
	dir, err := tempDir("x")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	state := mgr.ExportState()
	out["store.snapshot_10k_ms"] = once(func() { note(st.WriteSnapshot(state)) })
	note(st.Close())
	var scrape bytes.Buffer
	out["telemetry.scrape_10k_ms"] = once(func() {
		scrape.Reset()
		reg.WritePrometheus(&scrape)
	})
	out["telemetry.scrape_10k_bytes"] = float64(scrape.Len())

	// Fleet: the per-tick cost is the slope between two run lengths (the
	// harness ramps its population inside the call), the re-home bound comes
	// from a run with one machine killed.
	fleet := func(ticks int, plan *faultsim.Plan) (*harpsim.ClusterResult, time.Duration) {
		t0 := time.Now()
		res, err := harpsim.RunCluster(harpsim.ClusterOptions{
			Machines: machines, Sessions: sessions, Ticks: ticks, EventsPerTick: churnEventsPerTick,
			Seed: seed, Plan: plan,
			// A budget just above the population's worst-case demand (3 W a
			// session) spreads it over the whole fleet; without one the
			// coordinator packs every session onto the first machine.
			FleetBudgetW: 3.2 * float64(sessions),
		})
		note(err)
		return res, time.Since(t0)
	}
	windows := []time.Duration{meanDuration(refSample(layerRefRuns, nil))}
	_, short := fleet(ticks/2, nil)
	kill := &faultsim.Plan{Seed: seed, Faults: []faultsim.Fault{
		{At: harpsim.ClusterTick(ticks / 4), Target: "m1", Kind: faultsim.KindMachineKill},
	}}
	res, long := fleet(ticks+ticks/2, kill)
	factor := wallFactor(append(windows, meanDuration(refSample(layerRefRuns, nil))))
	out["cluster.tick_64_ms"] = ms(long-short) / float64(ticks) * factor
	if res != nil {
		out["cluster.rehome_ticks"] = float64(res.MaxUnownedTicks)
	}
	return nil
}
