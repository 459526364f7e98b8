// Command harp-sim runs evaluation scenarios on the simulated heterogeneous
// platforms and regenerates the paper's tables and figures.
//
// Usage:
//
//	harp-sim run -platform intel -apps mg.C,cg.C -policy harp-offline \
//	             [-trace run.trace.json] [-journal run.journal.jsonl]
//	harp-sim experiment fig6 [-quick] [-seed 1]
//	harp-sim list
//
// Experiments: fig1, fig5, fig6, fig7, fig8, governor, overhead,
// attribution, alloc-ablation, explore-ablation, fig-cluster, all.
//
// fig-cluster is the fleet extension: coordinated bin-packing with drain
// consolidation versus static per-machine partitioning of one shared
// energy budget, with a faulted arm (machine kill + coordinator failover).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/experiments"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harp-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: harp-sim run|experiment|list …")
	}
	switch args[0] {
	case "run":
		return runScenario(args[1:], out)
	case "experiment":
		return runExperiment(args[1:], out)
	case "list":
		return listWorkloads(out)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func listWorkloads(out io.Writer) error {
	fmt.Fprintln(out, "Intel Raptor Lake workloads:")
	for _, p := range workload.IntelApps() {
		fmt.Fprintf(out, "  %-20s %-9s work=%.0f GI  mem=%.2f\n", p.Name, p.Adaptivity, p.WorkGI, p.MemBound)
	}
	fmt.Fprintln(out, "Odroid XU3-E workloads:")
	for _, p := range workload.OdroidApps() {
		fmt.Fprintf(out, "  %-20s %-9s work=%.0f GI  mem=%.2f\n", p.Name, p.Adaptivity, p.WorkGI, p.MemBound)
	}
	return nil
}

func runScenario(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harp-sim run", flag.ContinueOnError)
	var (
		platName  = fs.String("platform", "intel", "intel or odroid")
		appsFlag  = fs.String("apps", "", "comma-separated application names")
		polName   = fs.String("policy", "cfs", "cfs|eas|itd|harp|harp-offline|harp-noscaling|harp-overhead")
		seed      = fs.Int64("seed", 1, "noise seed")
		timeline  = fs.Bool("timeline", false, "print every applied allocation decision (HARP policies)")
		traceFile = fs.String("trace", "", "write a Chrome trace_event JSON of the run (open in Perfetto)")
		journFile = fs.String("journal", "", "write the per-epoch decision journal (JSONL) to this file")
		stateDir  = fs.String("state-dir", "", "durable RM state directory: resume learned tables across runs (HARP policies)")
		rmCrashAt = fs.Duration("rm-crash-at", 0, "kill and restart the RM at this virtual time (warm from -state-dir, else cold)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plat := platform.Builtin(*platName)
	if plat == nil {
		return fmt.Errorf("unknown platform %q", *platName)
	}
	suite := workload.IntelApps()
	if plat.Name == platform.OdroidXU3().Name {
		suite = workload.OdroidApps()
	}
	if *appsFlag == "" {
		return errors.New("-apps is required")
	}
	var apps []*workload.Profile
	for _, name := range strings.Split(*appsFlag, ",") {
		p, err := workload.ByName(suite, strings.TrimSpace(name))
		if err != nil {
			return err
		}
		apps = append(apps, p)
	}
	policy, err := parsePolicy(*polName)
	if err != nil {
		return err
	}
	sc := harpsim.Scenario{Name: *appsFlag, Platform: plat, Apps: apps}
	opts := harpsim.Options{Policy: policy, Seed: *seed, RecordTimeline: *timeline, StateDir: *stateDir}
	if policy.IsHARP() {
		opts.OfflineTables = harpsim.OfflineDSETables(plat, suite)
	}
	if *rmCrashAt > 0 {
		if !policy.IsHARP() {
			return errors.New("-rm-crash-at requires a HARP policy")
		}
		opts.Faults = &faultsim.Plan{Faults: []faultsim.Fault{
			{At: *rmCrashAt, Target: faultsim.RMTarget, Kind: faultsim.KindRMCrash},
		}}
	}
	if *traceFile != "" {
		// Large enough that typical scenario runs keep every event.
		opts.Tracer = telemetry.NewTracer(1 << 20)
	}
	var journalOut *os.File
	if *journFile != "" {
		f, err := os.Create(*journFile)
		if err != nil {
			return err
		}
		journalOut = f
		defer f.Close()
		opts.Journal = telemetry.NewJournal(f)
		if policy.IsHARP() {
			// Journalled HARP runs carry the energy ledger so each epoch
			// records energy_j / budget_headroom_w (see OPERATIONS.md).
			opts.Energy = telemetry.NewEnergyLedger()
		}
	}
	res, err := harpsim.Run(sc, opts)
	if err != nil {
		return err
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		if err := opts.Tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace     : %s (%d events", *traceFile, opts.Tracer.Total())
		if d := opts.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(out, ", oldest %d evicted", d)
		}
		fmt.Fprintln(out, ")")
	}
	if journalOut != nil {
		if err := opts.Journal.Err(); err != nil {
			return err
		}
		fmt.Fprintf(out, "journal   : %s (%d epochs)\n", *journFile, opts.Journal.Epochs())
	}
	fmt.Fprintf(out, "scenario  : %s on %s under %s\n", sc.Name, plat.Name, policy)
	fmt.Fprintf(out, "makespan  : %.3f s\n", res.MakespanSec)
	fmt.Fprintf(out, "energy    : %.1f J\n", res.EnergyJ)
	if res.RMRestarts > 0 {
		fmt.Fprintf(out, "rm-crashes: %d survived (state %s)\n", res.RMRestarts, stateLabel(*stateDir))
	}
	appNames := make([]string, 0, len(res.Apps))
	for name := range res.Apps {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	for _, name := range appNames {
		ar := res.Apps[name]
		fmt.Fprintf(out, "  %-22s %8.3f s  %10.1f J dyn\n", name, ar.TimeSec, ar.DynEnergyJ)
	}
	if *timeline && len(res.Timeline) > 0 {
		fmt.Fprintln(out, "\nallocation timeline:")
		for _, ev := range res.Timeline {
			mode := "stable"
			switch {
			case len(ev.Cores) == 0 && ev.VectorKey == "":
				mode = "session-end"
			case len(ev.Cores) == 0:
				mode = "parked"
			case ev.Exploring:
				mode = "explore"
			case ev.CoAllocated:
				mode = "co-alloc"
			}
			fmt.Fprintf(out, "  %8.2fs %-22s %-11s vector %-10s threads %d\n",
				ev.AtSec, ev.Instance, mode, ev.VectorKey, ev.Threads)
		}
	}
	return nil
}

// stateLabel names the durability mode for the rm-crashes summary line.
func stateLabel(dir string) string {
	if dir == "" {
		return "none, cold restarts"
	}
	return dir
}

func parsePolicy(name string) (harpsim.Policy, error) {
	policies := map[string]harpsim.Policy{
		"cfs":            harpsim.PolicyCFS,
		"eas":            harpsim.PolicyEAS,
		"itd":            harpsim.PolicyITD,
		"harp":           harpsim.PolicyHARP,
		"harp-offline":   harpsim.PolicyHARPOffline,
		"harp-noscaling": harpsim.PolicyHARPNoScaling,
		"harp-overhead":  harpsim.PolicyHARPOverhead,
	}
	p, ok := policies[name]
	if !ok {
		return 0, fmt.Errorf("unknown policy %q", name)
	}
	return p, nil
}

func runExperiment(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harp-sim experiment", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "trimmed scenario lists for a fast run")
		seed     = fs.Int64("seed", 1, "noise seed")
		parallel = fs.Int("parallelism", 0, "worker count for the experiment fan-out (0 = one per CPU, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: harp-sim experiment <name> [-quick] [-seed N] [-parallelism N]")
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Parallelism: *parallel}

	type runner struct {
		name string
		fn   func() error
	}
	format := func(r interface{ Format(io.Writer) }, err error) error {
		if err != nil {
			return err
		}
		r.Format(out)
		return nil
	}
	all := []runner{
		{"fig1", func() error { r, err := experiments.Fig1(cfg); return format(r, err) }},
		{"fig5", func() error { r, err := experiments.Fig5(cfg); return format(r, err) }},
		{"fig6", func() error { r, err := experiments.Fig6(cfg); return format(r, err) }},
		{"fig7", func() error { r, err := experiments.Fig7(cfg); return format(r, err) }},
		{"fig8", func() error { r, err := experiments.Fig8(cfg); return format(r, err) }},
		{"governor", func() error { r, err := experiments.Governor(cfg); return format(r, err) }},
		{"overhead", func() error { r, err := experiments.Overhead(cfg); return format(r, err) }},
		{"attribution", func() error { r, err := experiments.Attribution(cfg); return format(r, err) }},
		{"alloc-ablation", func() error { r, err := experiments.AllocAblation(cfg); return format(r, err) }},
		{"explore-ablation", func() error { r, err := experiments.ExploreAblation(cfg); return format(r, err) }},
		{"fig-cluster", func() error { r, err := experiments.FigCluster(cfg); return format(r, err) }},
	}
	want := fs.Arg(0)
	if want == "all" {
		for _, r := range all {
			if err := r.fn(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		return nil
	}
	for _, r := range all {
		if r.name == want {
			return r.fn()
		}
	}
	return fmt.Errorf("unknown experiment %q", want)
}
