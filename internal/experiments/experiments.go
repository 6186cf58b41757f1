// Package experiments regenerates the evaluation artifacts of the
// paper: Table 1 (benchmark inventory), Table 2 (ROMDD size under the
// seven multiple-valued orderings), Table 3 (coded-ROBDD size under the
// bit-group orderings), Table 4 (end-to-end performance of the chosen
// heuristics), the Figure 2 worked example, plus the reproduction-only
// ablations (direct-MDD construction, Monte-Carlo baseline).
//
// The paper's own numbers are embedded so every regenerated table
// prints measured-vs-paper side by side; EXPERIMENTS.md is the frozen
// record of one full run.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/montecarlo"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/store"
	"socyield/internal/yield"
)

// Case identifies one experimental row: a benchmark at a lethal-defect
// intensity λ′ ∈ {1, 2}.
type Case struct {
	Benchmark   string
	LambdaPrime int
}

// String returns the paper's row label, e.g. "MS4, λ'=2".
func (c Case) String() string { return fmt.Sprintf("%s, λ'=%d", c.Benchmark, c.LambdaPrime) }

// PaperCases returns the fifteen rows of Tables 2–4 in the paper's
// order.
func PaperCases() []Case {
	return []Case{
		{"MS2", 1}, {"MS4", 1}, {"MS6", 1}, {"MS8", 1}, {"MS10", 1},
		{"MS2", 2}, {"MS4", 2},
		{"ESEN4x1", 1}, {"ESEN4x2", 1}, {"ESEN4x4", 1}, {"ESEN8x1", 1}, {"ESEN8x2", 1},
		{"ESEN4x1", 2}, {"ESEN4x2", 2}, {"ESEN4x4", 2},
	}
}

// QuickCases returns the subset of rows that complete in seconds,
// for iterative runs and the Go benchmarks.
func QuickCases() []Case {
	return []Case{
		{"MS2", 1}, {"MS4", 1}, {"MS2", 2},
		{"ESEN4x1", 1}, {"ESEN4x2", 1}, {"ESEN4x1", 2},
	}
}

// Config sets shared experiment parameters. The zero value is replaced
// by the calibrated reproduction defaults.
type Config struct {
	// Alpha is the negative binomial clustering parameter (default
	// 3.4, the joint calibration with the benchmark weight ratios that
	// reproduces the paper's published yields — see
	// internal/tools/calib2 and calib3 — while keeping the truncation
	// points at the paper's M = 6 for λ′ = 1 and M = 10 for λ′ = 2).
	Alpha float64
	// Epsilon is the yield error requirement (default 2e-3, inside
	// the window that yields exactly those truncation points at the
	// default Alpha).
	Epsilon float64
	// NodeLimit bounds decision-diagram nodes; configurations
	// exceeding it are reported as failures, reproducing the paper's
	// "—" (memory exhaustion on 4 GB) entries. When 0, Table 2 uses
	// 30,000,000 — which empirically reproduces the paper's failure
	// pattern — and the performance tables use 100,000,000, enough
	// headroom for the largest successful rows (our GC cadence lets
	// roughly 2× the paper's peak accumulate between collections).
	NodeLimit int
	// Workers is the number of cases evaluated concurrently by the
	// table drivers (each case builds its own decision diagrams, so
	// cases are independent); ≤ 0 means runtime.GOMAXPROCS(0). Row
	// order and row contents are unaffected by the worker count —
	// only wall-clock time is. Note that per-row CPU timings (Table 4)
	// measure contended wall-clock when Workers > 1; pass Workers: 1
	// when timing fidelity matters more than throughput, and mind the
	// node budget: it applies per case, so W concurrent cases can hold
	// W × NodeLimit nodes at peak.
	Workers int
	// Recorder, when non-nil, instruments every evaluation the table
	// drivers run: engine counters accumulate across cases, gauges
	// reflect the last case finished. The registry is concurrency-safe,
	// so it composes with Workers > 1.
	Recorder *obs.Registry
	// Tracer, when non-nil, records per-work-unit build events from
	// every evaluation into the flight recorder's trace ring. Like the
	// Recorder it is concurrency-safe and shared across cases.
	Tracer *obs.Tracer
	// Store, when non-nil, is a persistent compiled-model store (the
	// same artifacts yieldd -store-dir serves): benchmark drivers that
	// support it load compiled models from the store instead of
	// rebuilding, and write fresh builds through.
	Store *store.Store
}

const (
	defaultOrderingNodeLimit = 30_000_000
	defaultPerfNodeLimit     = 100_000_000
)

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 3.4
	}
	if c.Epsilon == 0 {
		c.Epsilon = 2e-3
	}
	return c
}

// limit returns the node budget for an experiment family.
func (c Config) limit(def int) int {
	if c.NodeLimit != 0 {
		return c.NodeLimit
	}
	return def
}

// workers resolves the configured case concurrency.
func (c Config) workers(cases int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cases {
		w = cases
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachCase evaluates fn for every case on a bounded worker pool and
// returns the results in case order. Cases are independent — each
// builds its own managers — so this is the embarrassingly parallel
// outer loop of every table driver. On error the first failing case
// (in case order, for determinism) is reported.
func forEachCase[T any](cases []Case, cfg Config, fn func(cs Case) (T, error)) ([]T, error) {
	out := make([]T, len(cases))
	if len(cases) == 0 {
		return out, nil
	}
	errs := make([]error, len(cases))
	workers := cfg.workers(len(cases))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				out[i], errs[i] = fn(cases[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildSystem instantiates a named benchmark.
func buildSystem(name string) (*yield.System, error) {
	for _, e := range benchmarks.PaperBenchmarks() {
		if e.Name == name {
			return e.Build()
		}
	}
	return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// distribution returns the defect distribution of a case: negative
// binomial with mean 2·λ′ (P_L = 0.5 makes the lethal mean λ′).
func distribution(c Case, cfg Config) (defects.Distribution, error) {
	return defects.NewNegativeBinomial(2*float64(c.LambdaPrime), cfg.Alpha)
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Benchmark  string
	Components int
	Gates      int // our reconstructed netlist
	PaperC     int
	PaperGates int
}

// Table1 regenerates the benchmark inventory.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, e := range benchmarks.PaperBenchmarks() {
		sys, err := e.Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Benchmark:  e.Name,
			Components: len(sys.Components),
			Gates:      sys.FaultTree.NumGates(),
			PaperC:     benchmarks.PaperComponentCounts[e.Name],
			PaperGates: benchmarks.PaperGateCounts[e.Name],
		})
	}
	return rows, nil
}

// Cell is one measurement that may have failed on the node budget.
type Cell struct {
	Size   int
	Failed bool
}

func (c Cell) String() string {
	if c.Failed {
		return "—"
	}
	return fmt.Sprintf("%d", c.Size)
}

// Table2Row is one row of Table 2: ROMDD sizes per MV ordering.
type Table2Row struct {
	Case  Case
	Sizes map[string]Cell // keyed by ordering name (wv, wvr, …)
	Paper map[string]Cell
}

// Table2MVOrderings lists the column orderings of Table 2.
func Table2MVOrderings() []order.MVKind {
	return []order.MVKind{
		order.MVWV, order.MVWVR, order.MVVW, order.MVVRW,
		order.MVTopology, order.MVWeight, order.MVH4,
	}
}

// Table2 regenerates the MV-ordering comparison for the given cases,
// evaluating Config.Workers cases concurrently.
func Table2(cases []Case, cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	return forEachCase(cases, cfg, func(cs Case) (Table2Row, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return Table2Row{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return Table2Row{}, err
		}
		row := Table2Row{Case: cs, Sizes: make(map[string]Cell), Paper: paperTable2[cs]}
		for _, mv := range Table2MVOrderings() {
			res, err := yield.Evaluate(sys, yield.Options{
				Defects: dist, Epsilon: cfg.Epsilon,
				MVOrder: mv, BitOrder: order.BitML,
				NodeLimit: cfg.limit(defaultOrderingNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
			})
			switch {
			case err == nil:
				row.Sizes[mv.String()] = Cell{Size: res.ROMDDSize}
			case isLimit(err):
				row.Sizes[mv.String()] = Cell{Failed: true}
			default:
				return Table2Row{}, fmt.Errorf("%v/%v: %w", cs, mv, err)
			}
		}
		return row, nil
	})
}

// Table3Row is one row of Table 3: coded-ROBDD sizes per bit-group
// ordering under the weight MV ordering.
type Table3Row struct {
	Case  Case
	Sizes map[string]Cell // keyed by ml, lm, w
	Paper map[string]Cell
}

// Table3BitOrderings lists the column orderings of Table 3.
func Table3BitOrderings() []order.BitKind {
	return []order.BitKind{order.BitML, order.BitLM, order.BitWeight}
}

// Table3 regenerates the bit-ordering comparison, evaluating
// Config.Workers cases concurrently.
func Table3(cases []Case, cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	return forEachCase(cases, cfg, func(cs Case) (Table3Row, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return Table3Row{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return Table3Row{}, err
		}
		row := Table3Row{Case: cs, Sizes: make(map[string]Cell), Paper: paperTable3[cs]}
		for _, bk := range Table3BitOrderings() {
			res, err := yield.Evaluate(sys, yield.Options{
				Defects: dist, Epsilon: cfg.Epsilon,
				MVOrder: order.MVWeight, BitOrder: bk,
				NodeLimit: cfg.limit(defaultPerfNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
			})
			switch {
			case err == nil:
				row.Sizes[bk.String()] = Cell{Size: res.CodedROBDDSize}
			case isLimit(err):
				row.Sizes[bk.String()] = Cell{Failed: true}
			default:
				return Table3Row{}, fmt.Errorf("%v/%v: %w", cs, bk, err)
			}
		}
		return row, nil
	})
}

// Table4Row is one row of Table 4: the end-to-end method with the
// paper's chosen heuristics (w for MV variables, ml for bit groups).
type Table4Row struct {
	Case      Case
	CPU       time.Duration
	Peak      int
	ROBDD     int
	ROMDD     int
	Yield     float64
	M         int
	Failed    bool
	PaperCPU  float64 // seconds
	PaperRow  PaperPerf
	HavePaper bool
}

// PaperPerf is the paper's Table 4 row.
type PaperPerf struct {
	CPUSeconds float64
	Peak       int
	ROBDD      int
	ROMDD      int
	Yield      float64
}

// Table4 regenerates the end-to-end performance table, evaluating
// Config.Workers cases concurrently (per-row CPU times then measure
// contended wall-clock; use Workers: 1 for clean timings).
func Table4(cases []Case, cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	return forEachCase(cases, cfg, func(cs Case) (Table4Row, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return Table4Row{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return Table4Row{}, err
		}
		start := time.Now()
		res, err := yield.Evaluate(sys, yield.Options{
			Defects: dist, Epsilon: cfg.Epsilon,
			MVOrder: order.MVWeight, BitOrder: order.BitML,
			NodeLimit: cfg.limit(defaultPerfNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
		})
		row := Table4Row{Case: cs, CPU: time.Since(start)}
		if paper, ok := paperTable4[cs]; ok {
			row.PaperRow = paper
			row.HavePaper = true
		}
		switch {
		case err == nil:
			row.Peak = res.ROBDDPeak
			row.ROBDD = res.CodedROBDDSize
			row.ROMDD = res.ROMDDSize
			row.Yield = res.Yield
			row.M = res.M
		case isLimit(err):
			row.Failed = true
			if res != nil {
				row.Peak = res.ROBDDPeak
			}
		default:
			return Table4Row{}, fmt.Errorf("%v: %w", cs, err)
		}
		return row, nil
	})
}

// AblationRow compares the coded-ROBDD route against direct ROMDD
// construction by MDD apply (the paper's Section 2 consensus claim).
type AblationRow struct {
	Case         Case
	CodedTime    time.Duration
	DirectTime   time.Duration
	ROMDD        int
	SizesAgree   bool
	YieldsAgree  bool
	DirectFailed bool
}

// AblationDirectMDD runs both construction routes on the given cases,
// evaluating Config.Workers cases concurrently.
func AblationDirectMDD(cases []Case, cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	return forEachCase(cases, cfg, func(cs Case) (AblationRow, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return AblationRow{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		opts := yield.Options{
			Defects: dist, Epsilon: cfg.Epsilon,
			MVOrder: order.MVWeight, BitOrder: order.BitML,
			NodeLimit: cfg.limit(defaultPerfNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
		}
		start := time.Now()
		viaCoded, err := yield.Evaluate(sys, opts)
		if err != nil {
			return AblationRow{}, fmt.Errorf("%v coded route: %w", cs, err)
		}
		codedTime := time.Since(start)
		start = time.Now()
		direct, err := yield.EvaluateDirectMDD(sys, opts)
		row := AblationRow{Case: cs, CodedTime: codedTime, ROMDD: viaCoded.ROMDDSize}
		if err != nil {
			if !isLimit(err) {
				return AblationRow{}, fmt.Errorf("%v direct route: %w", cs, err)
			}
			row.DirectFailed = true
		} else {
			row.DirectTime = time.Since(start)
			row.SizesAgree = direct.ROMDDSize == viaCoded.ROMDDSize
			row.YieldsAgree = abs(direct.Yield-viaCoded.Yield) < 1e-9
		}
		return row, nil
	})
}

// BaselineRow compares the combinatorial method with Monte-Carlo
// simulation at a matched time budget.
type BaselineRow struct {
	Case        Case
	Exact       float64
	ExactTime   time.Duration
	MC          float64
	MCStdErr    float64
	MCSamples   int
	MCTime      time.Duration
	WithinThree bool // |MC − exact| ≤ 3σ
}

// BaselineMonteCarlo runs the simulation baseline with the given
// sample count per case, evaluating Config.Workers cases concurrently
// (the simulator itself stays single-worker per case then, so the
// machine is not oversubscribed; with one case it fans the samples
// out instead).
func BaselineMonteCarlo(cases []Case, samples int, cfg Config) ([]BaselineRow, error) {
	cfg = cfg.withDefaults()
	caseWorkers := cfg.workers(len(cases))
	mcWorkers := 1
	if caseWorkers == 1 {
		mcWorkers = cfg.Workers // ≤ 0 lets the simulator pick GOMAXPROCS
	}
	return forEachCase(cases, cfg, func(cs Case) (BaselineRow, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return BaselineRow{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return BaselineRow{}, err
		}
		start := time.Now()
		exact, err := yield.Evaluate(sys, yield.Options{
			Defects: dist, Epsilon: cfg.Epsilon, NodeLimit: cfg.limit(defaultPerfNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
		})
		if err != nil {
			return BaselineRow{}, fmt.Errorf("%v: %w", cs, err)
		}
		exactTime := time.Since(start)
		start = time.Now()
		mc, err := montecarlo.Estimate(sys, montecarlo.Options{
			Defects: dist, Samples: samples, Seed: 20030622, // DSN'03 conference date
			Workers: mcWorkers,
		})
		if err != nil {
			return BaselineRow{}, fmt.Errorf("%v MC: %w", cs, err)
		}
		diff := abs(mc.Yield - exact.Yield)
		return BaselineRow{
			Case: cs, Exact: exact.Yield, ExactTime: exactTime,
			MC: mc.Yield, MCStdErr: mc.StdErr, MCSamples: samples,
			MCTime: time.Since(start),
			// The combinatorial result is pessimistic by ≤ ε, so allow
			// the truncation slack on top of the sampling noise.
			WithinThree: diff <= 3*mc.StdErr+cfg.Epsilon,
		}, nil
	})
}

// ISBaselineRow compares the combinatorial method with the
// importance-sampling simulator on the same case, carrying the
// estimator's diagnostics (chosen tilt, effective sample size,
// relative error on the failure probability) alongside the agreement
// verdict.
type ISBaselineRow struct {
	Case        Case
	Exact       float64
	ExactTime   time.Duration
	IS          float64
	ISStdErr    float64
	Tilt        float64
	ESS         float64
	RelErr      float64
	Samples     int
	ISTime      time.Duration
	WithinThree bool // |IS − exact| ≤ 3σ + ε
}

// BaselineImportance runs the importance-sampling baseline with the
// given sample budget per case (pilot included), with the same
// worker-allocation rule as BaselineMonteCarlo: concurrent cases keep
// the simulator single-worker, a lone case fans its samples out.
func BaselineImportance(cases []Case, samples int, cfg Config) ([]ISBaselineRow, error) {
	cfg = cfg.withDefaults()
	caseWorkers := cfg.workers(len(cases))
	isWorkers := 1
	if caseWorkers == 1 {
		isWorkers = cfg.Workers // ≤ 0 lets the simulator pick GOMAXPROCS
	}
	return forEachCase(cases, cfg, func(cs Case) (ISBaselineRow, error) {
		sys, err := buildSystem(cs.Benchmark)
		if err != nil {
			return ISBaselineRow{}, err
		}
		dist, err := distribution(cs, cfg)
		if err != nil {
			return ISBaselineRow{}, err
		}
		start := time.Now()
		exact, err := yield.Evaluate(sys, yield.Options{
			Defects: dist, Epsilon: cfg.Epsilon, NodeLimit: cfg.limit(defaultPerfNodeLimit), Recorder: cfg.Recorder, Tracer: cfg.Tracer,
		})
		if err != nil {
			return ISBaselineRow{}, fmt.Errorf("%v: %w", cs, err)
		}
		exactTime := time.Since(start)
		start = time.Now()
		is, err := montecarlo.EstimateIS(sys, montecarlo.ISOptions{
			Defects: dist, Samples: samples, Seed: 20030622, // DSN'03 conference date
			Workers: isWorkers,
		})
		if err != nil {
			return ISBaselineRow{}, fmt.Errorf("%v IS: %w", cs, err)
		}
		diff := abs(is.Yield - exact.Yield)
		return ISBaselineRow{
			Case: cs, Exact: exact.Yield, ExactTime: exactTime,
			IS: is.Yield, ISStdErr: is.StdErr,
			Tilt: is.Tilt, ESS: is.ESS, RelErr: is.RelErr,
			Samples: samples, ISTime: time.Since(start),
			// Same slack rule as the naive baseline: truncation
			// pessimism on top of the sampling noise.
			WithinThree: diff <= 3*is.StdErr+cfg.Epsilon,
		}, nil
	})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func isLimit(err error) bool {
	return err != nil && strings.Contains(err.Error(), "node limit")
}

// FormatTable renders rows of named columns as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, cell := range r {
			if n := len([]rune(cell)); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len([]rune(cell)); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	total := len(header) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// SortCases orders cases as the paper's tables do (already the
// PaperCases order); it is exposed for callers assembling subsets.
func SortCases(cases []Case) {
	rank := make(map[Case]int, len(PaperCases()))
	for i, c := range PaperCases() {
		rank[c] = i
	}
	sort.SliceStable(cases, func(a, b int) bool {
		ra, oka := rank[cases[a]]
		rb, okb := rank[cases[b]]
		switch {
		case oka && okb:
			return ra < rb
		case oka:
			return true
		case okb:
			return false
		default:
			return cases[a].String() < cases[b].String()
		}
	})
}
