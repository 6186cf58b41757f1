// Command experiments regenerates the evaluation artifacts of the
// paper (Tables 1–4) plus the reproduction ablations, printing measured
// values next to the published ones.
//
// Usage:
//
//	experiments -table 1            # benchmark inventory
//	experiments -table 2            # ROMDD size vs MV ordering
//	experiments -table 3            # coded-ROBDD size vs bit ordering
//	experiments -table 4            # end-to-end method performance
//	experiments -ablation direct-mdd
//	experiments -baseline mc -samples 200000
//	experiments -baseline is -samples 200000   # importance sampling
//	experiments -all                # everything the paper reports
//	experiments -workers 8 -table 4 -full
//	experiments -bench-json BENCH_1.json
//
// By default only the quick row subset runs; -full selects all fifteen
// rows of the paper's tables (minutes to an hour on one core —
// -workers fans independent rows out across cores).
//
// -bench-json runs the batch-sweep scaling benchmark (one shared
// ROMDD, a (λ', α) grid of evaluation points, serial vs parallel) and
// writes the timing trajectory to the given file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"socyield/internal/cliutil"
	"socyield/internal/defects"
	"socyield/internal/experiments"
	"socyield/internal/obs"
	"socyield/internal/store"
	"socyield/internal/yield"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table 1-4")
		ablation   = flag.String("ablation", "", `ablation to run ("direct-mdd")`)
		baseline   = flag.String("baseline", "", `baseline to run ("mc" naive, "is" importance sampling)`)
		samples    = flag.Int("samples", 200000, "Monte-Carlo samples per case")
		full       = flag.Bool("full", false, "run all fifteen paper rows (slow)")
		caseList   = flag.String("cases", "", `explicit row list, e.g. "MS6:1,ESEN4x4:1" (overrides -full)`)
		all        = flag.Bool("all", false, "run every table and ablation")
		nodeLimit  = flag.Int("nodelimit", 0, "decision-diagram node budget (0 = default 30M)")
		epsilon    = flag.Float64("eps", 0, "yield error requirement (0 = default 5e-3)")
		alpha      = flag.Float64("alpha", 0, "NB clustering parameter (0 = default 2)")
		workers    = flag.Int("workers", 0, "cases evaluated concurrently (0 = all cores)")
		benchJSON  = flag.String("bench-json", "", "write the sweep scaling benchmark trajectory to this file")
		benchCase  = flag.String("bench-case", "ESEN8x2:1", `benchmark rows for -bench-json, e.g. "ESEN8x2:1,MS19:1"`)
		benchPts   = flag.Int("bench-points", 64, "sweep grid size for -bench-json")
		metricsJS  = flag.String("metrics-json", "", "write collected metrics as JSON to this file (\"-\" = stdout)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file of the run to this file (Perfetto-loadable)")
		samplesOut = flag.String("samples-out", "", "write the sampled metrics time series as JSONL to this file (\"-\" = stdout)")
		sampleInt  = flag.Duration("sample-interval", 0, "flight-recorder sampling interval (0 = 100ms default)")
		progress   = flag.Bool("progress", false, "print periodic progress lines for sweeps")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and an expvar metrics dump on this address")
		storeDir   = flag.String("store-dir", "", "persistent compiled-model store for -bench-json builds (shared with yieldd -store-dir)")
	)
	flag.Parse()
	var rec *obs.Registry
	if *metricsJS != "" || *pprofAddr != "" || *traceOut != "" || *samplesOut != "" {
		rec = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		cliutil.ServeDebug("experiments", *pprofAddr, rec)
	}
	flight := cliutil.StartFlightRecorder(rec, *traceOut, *samplesOut, *sampleInt)
	cfg := experiments.Config{Alpha: *alpha, Epsilon: *epsilon, NodeLimit: *nodeLimit, Workers: *workers, Recorder: rec, Tracer: flight.Tracer()}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, 0, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	cases := experiments.QuickCases()
	if *full || *all {
		cases = experiments.PaperCases()
	}
	if *caseList != "" {
		parsed, err := parseCases(*caseList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cases = parsed
	}
	ran := false
	run := func(name string, fn func() error) {
		ran = true
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *table == 1 || *all {
		run("Table 1: benchmark inventory", func() error { return printTable1(os.Stdout) })
	}
	if *table == 2 || *all {
		run("Table 2: ROMDD size vs MV-variable ordering", func() error { return printTable2(os.Stdout, cases, cfg) })
	}
	if *table == 3 || *all {
		run("Table 3: coded-ROBDD size vs bit-group ordering", func() error { return printTable3(os.Stdout, cases, cfg) })
	}
	if *table == 4 || *all {
		run("Table 4: method performance (w + ml)", func() error { return printTable4(os.Stdout, cases, cfg) })
	}
	if *ablation == "direct-mdd" || *all {
		run("Ablation: coded-ROBDD route vs direct MDD apply", func() error { return printAblation(os.Stdout, cases, cfg) })
	}
	if *baseline == "mc" || *all {
		run("Baseline: Monte-Carlo simulation", func() error { return printBaseline(os.Stdout, cases, *samples, cfg) })
	}
	if *baseline == "is" || *all {
		run("Baseline: importance-sampling simulation", func() error { return printBaselineIS(os.Stdout, cases, *samples, cfg) })
	}
	if *benchJSON != "" {
		run("Benchmark: batch sweep serial vs parallel", func() error {
			return runSweepBench(*benchJSON, *benchCase, *benchPts, *workers, *progress, cfg)
		})
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if err := flight.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *metricsJS != "" {
		if err := cliutil.WriteMetrics(rec, *metricsJS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// sweepBench is the JSON record of one -bench-json run: the one-time
// ROMDD build, then the same sweep grid timed at increasing worker
// counts (the timing trajectory).
type sweepBench struct {
	Benchmark   string `json:"benchmark"`
	LambdaPrime int    `json:"lambda_prime"`
	Points      int    `json:"points"`
	Cores       int    `json:"cores"`
	ROMDDNodes  int    `json:"romdd_nodes"`
	// ModelFromStore reports that -store-dir served the compiled model,
	// so BuildSec measures a decode + restore, not a compile.
	ModelFromStore bool    `json:"model_from_store,omitempty"`
	BuildSec       float64 `json:"build_seconds"`
	// Compile-path statistics of the one-time build: final coded-ROBDD
	// node count, the live-node high-water mark split by phase (the
	// compile peak is the paper's "ROBDD peak"), and the ITE operation
	// cache hit rate during compilation.
	CodedROBDDNodes  int     `json:"coded_robdd_nodes"`
	ROBDDPeakCompile int     `json:"robdd_peak_compile"`
	ROBDDPeakConvert int     `json:"robdd_peak_convert"`
	ITECacheHitRate  float64 `json:"ite_cache_hit_rate"`
	// BuildPhases splits BuildSec into the pipeline's phases, from the
	// one-time ROMDD construction (seconds per phase).
	BuildPhases struct {
		Prepare float64 `json:"prepare"`
		Encode  float64 `json:"encode"`
		Order   float64 `json:"order"`
		Compile float64 `json:"compile"`
		Convert float64 `json:"convert"`
		Eval    float64 `json:"eval"`
	} `json:"build_phases"`
	Trajectory []struct {
		Workers int     `json:"workers"`
		Seconds float64 `json:"seconds"`
		Speedup float64 `json:"speedup_vs_serial"`
	} `json:"trajectory"`
	Identical bool `json:"parallel_identical_to_serial"`
}

// runSweepBench runs benchOneCase for every case in caseSpec and
// writes the records as JSON: a single object for one case (the
// BENCH_1.json format), an array for several.
func runSweepBench(path, caseSpec string, points, maxWorkers int, progress bool, cfg experiments.Config) error {
	parsed, err := parseCases(caseSpec)
	if err != nil || len(parsed) == 0 {
		return fmt.Errorf("bad -bench-case %q: %v", caseSpec, err)
	}
	records := make([]sweepBench, 0, len(parsed))
	for _, cs := range parsed {
		rec, err := benchOneCase(cs, points, maxWorkers, progress, cfg)
		if err != nil {
			return err
		}
		records = append(records, rec)
	}
	var data []byte
	if len(records) == 1 {
		data, err = json.MarshalIndent(records[0], "", "  ")
	} else {
		data, err = json.MarshalIndent(records, "", "  ")
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchOneCase builds one shared ROMDD, evaluates a (λ', α) grid of
// points serially and at doubling worker counts, and verifies the
// results are bit-identical.
func benchOneCase(cs experiments.Case, points, maxWorkers int, progress bool, cfg experiments.Config) (sweepBench, error) {
	sys, err := cliutil.LoadSystem(cs.Benchmark, "")
	if err != nil {
		return sweepBench{}, err
	}
	alpha, eps := cfg.Alpha, cfg.Epsilon
	if alpha == 0 {
		alpha = 3.4
	}
	if eps == 0 {
		eps = 2e-3
	}
	dist, err := defects.NewNegativeBinomial(2*float64(cs.LambdaPrime), alpha)
	if err != nil {
		return sweepBench{}, err
	}
	t0 := time.Now()
	re, fromStore, err := store.LoadOrBuild(cfg.Store, sys, yield.Options{Defects: dist, Epsilon: eps, Recorder: cfg.Recorder})
	if err != nil {
		return sweepBench{}, err
	}
	out := sweepBench{
		Benchmark:        cs.Benchmark,
		LambdaPrime:      cs.LambdaPrime,
		Points:           points,
		Cores:            runtime.NumCPU(),
		ROMDDNodes:       re.Result.ROMDDSize,
		ModelFromStore:   fromStore,
		BuildSec:         time.Since(t0).Seconds(),
		CodedROBDDNodes:  re.Result.CodedROBDDSize,
		ROBDDPeakCompile: re.Result.Stats.CompilePeakLive,
		ROBDDPeakConvert: re.Result.Stats.ConvertPeakLive,
		Identical:        true,
	}
	if hits, misses := re.Result.Stats.BDD.ApplyCacheHits, re.Result.Stats.BDD.ApplyCacheMisses; hits+misses > 0 {
		out.ITECacheHitRate = float64(hits) / float64(hits+misses)
	}
	ph := re.Result.Phases
	out.BuildPhases.Prepare = ph.Prepare.Seconds()
	out.BuildPhases.Encode = ph.Encode.Seconds()
	out.BuildPhases.Order = ph.Order.Seconds()
	out.BuildPhases.Compile = ph.Compile.Seconds()
	out.BuildPhases.Convert = ph.Convert.Seconds()
	out.BuildPhases.Eval = ph.Eval.Seconds()
	ps := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		ps[i] = c.P
	}
	grid := sweepGrid(ps, points)
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	serial := re.Sweep(grid, yield.SweepOptions{Workers: 1}) // warm-up and reference
	var serialSec float64
	for w := 1; w <= maxWorkers; w *= 2 {
		var meter *obs.Progress
		if progress {
			meter = obs.NewProgress(os.Stderr, fmt.Sprintf("sweep w=%d", w), len(grid), 0)
		}
		t0 = time.Now()
		res := re.Sweep(grid, yield.SweepOptions{Workers: w, Recorder: cfg.Recorder, Progress: meter})
		sec := time.Since(t0).Seconds()
		meter.Close()
		if w == 1 {
			serialSec = sec
		}
		for i := range res {
			if res[i] != serial[i] {
				out.Identical = false
			}
		}
		out.Trajectory = append(out.Trajectory, struct {
			Workers int     `json:"workers"`
			Seconds float64 `json:"seconds"`
			Speedup float64 `json:"speedup_vs_serial"`
		}{Workers: w, Seconds: sec, Speedup: serialSec / sec})
		fmt.Printf("workers=%-3d %8.3fs  speedup %.2fx  identical %v\n", w, sec, serialSec/sec, out.Identical)
	}
	return out, nil
}

// sweepGrid builds an n-point (λ', α) grid around the case's model.
func sweepGrid(ps []float64, n int) []yield.SweepPoint {
	grid := make([]yield.SweepPoint, 0, n)
	for i := 0; len(grid) < n; i++ {
		lambda := 0.5 + 0.25*float64(i%16)
		alpha := []float64{0.25, 1, 2, 3.4}[(i/16)%4]
		d, err := defects.NewNegativeBinomial(lambda, alpha)
		if err != nil {
			continue
		}
		grid = append(grid, yield.SweepPoint{PS: ps, Dist: d})
	}
	return grid
}

func parseCases(s string) ([]experiments.Case, error) {
	var out []experiments.Case
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		bench, lp, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad case %q, want <bench>:<lambda-prime>", part)
		}
		n, err := strconv.Atoi(lp)
		if err != nil {
			return nil, fmt.Errorf("bad λ' in %q: %v", part, err)
		}
		out = append(out, experiments.Case{Benchmark: bench, LambdaPrime: n})
	}
	return out, nil
}

func printTable1(w io.Writer) error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Benchmark,
			strconv.Itoa(r.Components), strconv.Itoa(r.PaperC),
			strconv.Itoa(r.Gates), strconv.Itoa(r.PaperGates),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"benchmark", "C", "C(paper)", "gates", "gates(paper)"}, out))
	return nil
}

func printTable2(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table2(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case"}
	for _, mv := range experiments.Table2MVOrderings() {
		header = append(header, mv.String(), mv.String()+"(paper)")
	}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		for _, mv := range experiments.Table2MVOrderings() {
			line = append(line, r.Sizes[mv.String()].String(), paperCell(r.Paper, mv.String()))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printTable3(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table3(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case"}
	for _, bk := range experiments.Table3BitOrderings() {
		header = append(header, bk.String(), bk.String()+"(paper)")
	}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		for _, bk := range experiments.Table3BitOrderings() {
			line = append(line, r.Sizes[bk.String()].String(), paperCell(r.Paper, bk.String()))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printTable4(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.Table4(cases, cfg)
	if err != nil {
		return err
	}
	header := []string{"case", "cpu", "cpu(paper)", "peak", "peak(paper)",
		"robdd", "robdd(paper)", "romdd", "romdd(paper)", "yield", "yield(paper)", "M"}
	var out [][]string
	for _, r := range rows {
		line := []string{r.Case.String()}
		if r.Failed {
			line = append(line, "—", paperSec(r), strconv.Itoa(r.Peak), paperInt(r.PaperRow.Peak, r.HavePaper),
				"—", paperInt(r.PaperRow.ROBDD, r.HavePaper), "—", paperInt(r.PaperRow.ROMDD, r.HavePaper),
				"—", paperYield(r), strconv.Itoa(r.M))
		} else {
			line = append(line,
				r.CPU.Round(10*time.Millisecond).String(), paperSec(r),
				strconv.Itoa(r.Peak), paperInt(r.PaperRow.Peak, r.HavePaper),
				strconv.Itoa(r.ROBDD), paperInt(r.PaperRow.ROBDD, r.HavePaper),
				strconv.Itoa(r.ROMDD), paperInt(r.PaperRow.ROMDD, r.HavePaper),
				fmt.Sprintf("%.4f", r.Yield), paperYield(r),
				strconv.Itoa(r.M))
		}
		out = append(out, line)
	}
	fmt.Fprint(w, experiments.FormatTable(header, out))
	return nil
}

func printAblation(w io.Writer, cases []experiments.Case, cfg experiments.Config) error {
	rows, err := experiments.AblationDirectMDD(cases, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		direct := r.DirectTime.Round(time.Millisecond).String()
		agree := fmt.Sprintf("%v/%v", r.SizesAgree, r.YieldsAgree)
		if r.DirectFailed {
			direct, agree = "—", "—"
		}
		out = append(out, []string{
			r.Case.String(),
			r.CodedTime.Round(time.Millisecond).String(),
			direct,
			strconv.Itoa(r.ROMDD),
			agree,
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "coded-robdd route", "direct-mdd route", "romdd", "size/yield agree"}, out))
	return nil
}

func printBaseline(w io.Writer, cases []experiments.Case, samples int, cfg experiments.Config) error {
	rows, err := experiments.BaselineMonteCarlo(cases, samples, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Case.String(),
			fmt.Sprintf("%.4f", r.Exact),
			r.ExactTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f±%.4f", r.MC, 1.96*r.MCStdErr),
			r.MCTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", r.WithinThree),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "combinatorial", "time", "monte-carlo (95% CI)", "time", "consistent"}, out))
	return nil
}

func printBaselineIS(w io.Writer, cases []experiments.Case, samples int, cfg experiments.Config) error {
	rows, err := experiments.BaselineImportance(cases, samples, cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Case.String(),
			fmt.Sprintf("%.4f", r.Exact),
			r.ExactTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.4f±%.4f", r.IS, 1.96*r.ISStdErr),
			fmt.Sprintf("%.2f", r.Tilt),
			fmt.Sprintf("%.0f", r.ESS),
			fmt.Sprintf("%.3g", r.RelErr),
			r.ISTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%v", r.WithinThree),
		})
	}
	fmt.Fprint(w, experiments.FormatTable(
		[]string{"case", "combinatorial", "time", "importance-sampling (95% CI)", "tilt", "ess", "rel-err", "time", "consistent"}, out))
	return nil
}

func paperCell(m map[string]experiments.Cell, key string) string {
	if m == nil {
		return "?"
	}
	c, ok := m[key]
	if !ok {
		return "?"
	}
	return c.String()
}

func paperInt(v int, have bool) string {
	if !have {
		return "?"
	}
	return strconv.Itoa(v)
}

func paperSec(r experiments.Table4Row) string {
	if !r.HavePaper {
		return "?"
	}
	return fmt.Sprintf("%.2fs", r.PaperRow.CPUSeconds)
}

func paperYield(r experiments.Table4Row) string {
	if !r.HavePaper {
		return "?"
	}
	return fmt.Sprintf("%.3f", r.PaperRow.Yield)
}
