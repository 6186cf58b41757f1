package socyield_test

// One benchmark per evaluation artifact of the paper (Tables 1–4 of
// Munteanu et al., DSN 2003) plus the reproduction ablations. The
// benchmarks run the fast row subset so `go test -bench=.` completes in
// minutes; `cmd/experiments -full` regenerates the complete tables and
// EXPERIMENTS.md records a full run.

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"socyield"
	"socyield/internal/experiments"
)

// benchCases is the sub-second row subset used by the Go benchmarks.
func benchCases() []experiments.Case {
	return []experiments.Case{{Benchmark: "MS2", LambdaPrime: 1}, {Benchmark: "ESEN4x1", LambdaPrime: 1}}
}

// BenchmarkTable1Inventory regenerates Table 1: the benchmark systems
// and their component/gate counts.
func BenchmarkTable1Inventory(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 11 {
			b.Fatalf("%d rows, want 11", len(rows))
		}
		for _, r := range rows {
			if r.Components != r.PaperC {
				b.Fatalf("%s: C=%d, paper %d", r.Benchmark, r.Components, r.PaperC)
			}
		}
	}
}

// BenchmarkTable2MVOrderings regenerates Table 2 rows: ROMDD size under
// the seven multiple-valued variable orderings.
func BenchmarkTable2MVOrderings(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table2(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			w, vrw := r.Sizes["w"], r.Sizes["vrw"]
			if w.Failed {
				b.Fatalf("%v: weight ordering failed", r.Case)
			}
			if !vrw.Failed && vrw.Size <= w.Size {
				b.Fatalf("%v: vrw (%d) not worse than w (%d)", r.Case, vrw.Size, w.Size)
			}
		}
	}
}

// BenchmarkTable3BitOrderings regenerates Table 3 rows: coded-ROBDD
// size under the bit-group orderings ml, lm, w.
func BenchmarkTable3BitOrderings(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table3(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Sizes["lm"] != r.Sizes["w"] {
				b.Fatalf("%v: lm and w differ (%v vs %v) — paper finds them identical",
					r.Case, r.Sizes["lm"], r.Sizes["w"])
			}
		}
	}
}

// BenchmarkTable4Method regenerates Table 4 rows: the end-to-end method
// with the paper's chosen heuristics (w + ml).
func BenchmarkTable4Method(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table4(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Failed {
				b.Fatalf("%v failed", r.Case)
			}
			if r.ROBDD <= r.ROMDD {
				b.Fatalf("%v: coded ROBDD (%d) not larger than ROMDD (%d)", r.Case, r.ROBDD, r.ROMDD)
			}
		}
	}
}

// BenchmarkAblationDirectMDD compares building the ROMDD through the
// coded ROBDD against direct MDD apply construction.
func BenchmarkAblationDirectMDD(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.AblationDirectMDD(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.DirectFailed && (!r.SizesAgree || !r.YieldsAgree) {
				b.Fatalf("%v: routes disagree", r.Case)
			}
		}
	}
}

// sweepSetup builds the ESEN8x2 Reevaluator (a ~300k-node ROMDD, a few
// seconds of construction) once for both sweep sub-benchmarks.
var sweepSetup struct {
	once sync.Once
	re   *socyield.Reevaluator
	grid []socyield.SweepPoint
	err  error
}

// BenchmarkSweepSerialVsParallel times a 64-point (λ, α) batch sweep on
// one shared ESEN8x2 ROMDD with one worker and with all cores, and
// checks the parallel results are bit-identical to the serial ones.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	s := &sweepSetup
	s.once.Do(func() {
		var sys *socyield.System
		if sys, s.err = socyield.ESEN(8, 2); s.err != nil {
			return
		}
		var dist socyield.Distribution
		if dist, s.err = socyield.NewNegativeBinomial(2, 3.4); s.err != nil {
			return
		}
		if s.re, s.err = socyield.NewReevaluator(sys, socyield.Options{Defects: dist, Epsilon: 2e-3}); s.err != nil {
			return
		}
		ps := make([]float64, len(sys.Components))
		for i, c := range sys.Components {
			ps[i] = c.P
		}
		var dists []socyield.Distribution
		for i := 0; i < 16; i++ {
			for _, alpha := range []float64{0.25, 1, 2, 3.4} {
				d, err := socyield.NewNegativeBinomial(0.5+0.25*float64(i), alpha)
				if err != nil {
					s.err = err
					return
				}
				dists = append(dists, d)
			}
		}
		s.grid = socyield.LambdaGrid(ps, dists)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	serial := s.re.Sweep(s.grid, socyield.SweepOptions{Workers: 1})
	for _, r := range serial {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		for b.Loop() {
			s.re.Sweep(s.grid, socyield.SweepOptions{Workers: 1})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for b.Loop() {
			res := s.re.Sweep(s.grid, socyield.SweepOptions{Workers: workers})
			for i := range res {
				if res[i] != serial[i] {
					b.Fatalf("point %d: parallel %v differs from serial %v", i, res[i], serial[i])
				}
			}
		}
	})
	// instrumented repeats the serial sweep with a live recorder — the
	// delta against "serial" is the measured instrumentation overhead.
	b.Run("instrumented", func(b *testing.B) {
		rec := socyield.NewMetrics()
		for b.Loop() {
			s.re.Sweep(s.grid, socyield.SweepOptions{Workers: 1, Recorder: rec})
		}
		writeBenchMetrics(b, rec)
	})
}

// writeBenchMetrics dumps the recorder to $SOCYIELD_BENCH_METRICS when
// that is set — the CI benchmark-smoke job uploads the file as an
// artifact.
func writeBenchMetrics(b *testing.B, rec *socyield.Metrics) {
	path := os.Getenv("SOCYIELD_BENCH_METRICS")
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatalf("metrics dump: %v", err)
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		b.Fatalf("metrics dump: %v", err)
	}
	if err := f.Close(); err != nil {
		b.Fatalf("metrics dump: %v", err)
	}
	b.Logf("metrics written to %s", path)
}

// BenchmarkBaselineMonteCarlo runs the simulation baseline the paper's
// introduction argues against.
func BenchmarkBaselineMonteCarlo(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.BaselineMonteCarlo(benchCases(), 20000, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.WithinThree {
				b.Fatalf("%v: MC %v vs exact %v beyond 3σ", r.Case, r.MC, r.Exact)
			}
		}
	}
}
