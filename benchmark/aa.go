package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The A/A mode answers the question every later comparison rests on: do two
// sets of runs of the *same* code agree within the benchmark's own bounds?
// It runs N sets of R runs per workload, every run a fresh process with its
// own seed exactly as the driver runs them, and reports per workload ×
// metric the set medians, each set's IQR and the largest pairwise difference
// of set medians against the bound — normalised next to raw, so the report
// also shows what the normalisation buys.

// rawPrefix marks the extra line a child prints for the A/A parent: the
// un-normalised twins of the timing metrics.
const rawPrefix = "raw-metrics: "

// rawValues are the un-normalised twins, keyed by the end-to-end name.
func rawValues(p *phaseResult) map[string]float64 {
	return map[string]float64{
		"setup_s":       p.setupRawS,
		"op_ms_p50":     p.opP50Raw,
		"cpu_ms_per_op": p.cpuRaw,
	}
}

type aaRun struct {
	norm map[string]float64
	raw  map[string]float64
}

// aaChild runs one workload once in a child process and parses its output.
func (b *bench) aaChild(workload string, seed int64) (aaRun, error) {
	self, err := os.Executable()
	if err != nil {
		return aaRun{}, err
	}
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(b.o.seconds, 'g', -1, 64), "--trace", "0", "-print-raw")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: %v: %s", workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	run := aaRun{norm: map[string]float64{}, raw: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, rawPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &run.raw); err != nil {
				return aaRun{}, err
			}
			continue
		}
		if line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return aaRun{}, fmt.Errorf("%s seed %d: last line is not a result: %v", workload, seed, err)
	}
	if !res.Correct {
		return aaRun{}, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	for name, v := range res.Metrics {
		run.norm[name] = v.Value
	}
	return run, nil
}

// spread summarises sets of values of one metric: per-set medians, the
// worst set IQR and the worst pairwise difference of set medians, both as
// shares of the median.
func spread(sets [][]float64) (medians []float64, worstIQR, worstDiff float64) {
	for _, vals := range sets {
		med := median(vals)
		medians = append(medians, med)
		if med != 0 {
			if r := iqr(vals) / med; r > worstIQR {
				worstIQR = r
			}
		}
	}
	for i := range medians {
		for j := i + 1; j < len(medians); j++ {
			lo, hi := medians[i], medians[j]
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > 0 && (hi-lo)/lo > worstDiff {
				worstDiff = (hi - lo) / lo
			}
		}
	}
	return medians, worstIQR, worstDiff
}

func (b *bench) runAA() int {
	specs := workloads
	if b.o.workload != "" {
		spec, ok := findWorkload(b.o.workload)
		if !ok {
			fmt.Fprintf(b.stderr, "benchmark: unknown workload %q\n", b.o.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	// data[workload][set] = runs
	data := map[string][][]aaRun{}
	for set := 0; set < b.o.aa; set++ {
		for run := 0; run < b.o.aaRuns; run++ {
			for _, spec := range specs {
				if run == 0 {
					data[spec.name] = append(data[spec.name], nil)
				}
				seed := b.o.seed + int64(run)
				t0 := time.Now()
				r, err := b.aaChild(spec.name, seed)
				if err != nil {
					fmt.Fprintln(b.stderr, "benchmark: a/a:", err)
					return 1
				}
				data[spec.name][set] = append(data[spec.name][set], r)
				fmt.Fprintf(b.stderr, "a/a: set %d run %d %s done in %.0f s\n", set+1, run+1, spec.name, time.Since(t0).Seconds())
			}
		}
	}

	w := b.stdout
	fmt.Fprintf(w, "# A/A report\n\n%d sets × %d runs per workload, %g s measured per run, seeds %d..%d in every set; each run a fresh process.\n",
		b.o.aa, b.o.aaRuns, b.o.seconds, b.o.seed, b.o.seed+int64(b.o.aaRuns)-1)
	fmt.Fprintf(w, "IQR and Δ are shares of the median; IQR is the worst set's, computed like Python's `statistics.quantiles(n=4)`; Δ is the largest pairwise difference of set medians. `raw` repeats the row without speed normalisation.\n\n")
	fmt.Fprintf(w, "| workload | metric | set medians | IQR | Δ medians | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, spec := range specs {
		for _, m := range endToEnd {
			col := func(pick func(aaRun) map[string]float64) ([][]float64, bool) {
				sets := make([][]float64, len(data[spec.name]))
				for s, runs := range data[spec.name] {
					for _, r := range runs {
						v, ok := pick(r)[m.name]
						if !ok {
							return nil, false
						}
						sets[s] = append(sets[s], v)
					}
				}
				return sets, true
			}
			sets, _ := col(func(r aaRun) map[string]float64 { return r.norm })
			meds, q, d := spread(sets)
			verdict := "ok"
			// setup_s is exempt from the spread rule, not from the median rule.
			if (q > m.bound && m.name != "setup_s") || d > m.bound {
				verdict = "EXCEEDS"
				bad++
			} else if d > m.bound/2 || q > m.bound/3 {
				verdict = "ok (tight)"
			}
			fmt.Fprintf(w, "| %s | %s (%s) | %s | %.2f %% | %.2f %% | %.1f %% | %s |\n",
				spec.name, m.name, m.unit, fmtList(meds), 100*q, 100*d, 100*m.bound, verdict)
			if rawSets, ok := col(func(r aaRun) map[string]float64 { return r.raw }); ok {
				meds, q, d := spread(rawSets)
				fmt.Fprintf(w, "| | ↳ raw | %s | %.2f %% | %.2f %% | | |\n", fmtList(meds), 100*q, 100*d)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d workload × metric pairs exceed their bound.\n", bad)
	} else {
		fmt.Fprintf(w, "\nEvery workload × metric pair is within its bound.\n")
	}
	fmt.Fprintf(w, "\n## Every run\n\nValues in run order (seed %d first), one line per set.\n\n", b.o.seed)
	for _, spec := range specs {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "- %s %s:", spec.name, m.name)
			for _, runs := range data[spec.name] {
				vals := make([]float64, len(runs))
				for i, r := range runs {
					vals[i] = r.norm[m.name]
				}
				fmt.Fprintf(w, " [%s]", strings.ReplaceAll(fmtList(vals), " / ", " "))
			}
			fmt.Fprintln(w)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " / ")
}
