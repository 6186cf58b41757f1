package yield

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"socyield/internal/order"
)

// evaluateInParallel runs Evaluate on workers goroutines at once, all
// on the same system and options.
func evaluateInParallel(sys *System, opts Options, workers int) ([]*Result, []error) {
	res := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res[w], errs[w] = Evaluate(sys, opts)
		}(w)
	}
	wg.Wait()
	return res, errs
}

// TestParallelBuildEquivalence runs the full pipeline on randomized
// fault trees once on its own and then on several goroutines at once,
// as the server and the table runner build models, and asserts the
// results are identical to the last bit. Each build owns its managers,
// so parallel builds compile the same coded ROBDD, convert it to the
// same ROMDD, and the probability traversal performs the same float64
// operations: yield, M, error bound and both diagram sizes must match
// under ==, not a tolerance, for every worker count.
func TestParallelBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	mvKinds := []order.MVKind{order.MVWeight, order.MVWV, order.MVVW, order.MVTopology, order.MVH4}
	workerCounts := []int{2, 4, 8}
	trees := 25
	if testing.Short() {
		trees = 8
	}
	for i := 0; i < trees; i++ {
		c := 3 + rng.Intn(5) // 3..7 components
		sys := randomOracleSystem(rng, c)
		dist := randomDistribution(rng)
		eps := []float64{5e-2, 1e-2, 2e-3}[rng.Intn(3)]
		opts := Options{
			Defects: dist,
			Epsilon: eps,
			MVOrder: mvKinds[rng.Intn(len(mvKinds))],
		}
		name := fmt.Sprintf("tree %d (C=%d, %v, ε=%g, mv=%v)", i, c, dist, eps, opts.MVOrder)

		serial, err := Evaluate(sys, opts)
		if err != nil {
			t.Fatalf("%s: serial evaluate: %v", name, err)
		}
		for _, workers := range workerCounts {
			pars, errs := evaluateInParallel(sys, opts, workers)
			for w, par := range pars {
				if errs[w] != nil {
					t.Fatalf("%s: parallel evaluate (workers=%d, goroutine %d): %v", name, workers, w, errs[w])
				}
				if par.M != serial.M {
					t.Errorf("%s workers=%d: truncation point differs: %d vs %d", name, workers, par.M, serial.M)
				}
				if par.Yield != serial.Yield {
					t.Errorf("%s workers=%d: Y_M differs: %.17g vs %.17g", name, workers, par.Yield, serial.Yield)
				}
				if par.ErrorBound != serial.ErrorBound {
					t.Errorf("%s workers=%d: error bound differs: %.17g vs %.17g", name, workers, par.ErrorBound, serial.ErrorBound)
				}
				// Both diagrams are canonical for the variable order, so
				// the sizes cannot depend on what else runs alongside.
				if par.CodedROBDDSize != serial.CodedROBDDSize {
					t.Errorf("%s workers=%d: coded ROBDD size differs: %d vs %d", name, workers, par.CodedROBDDSize, serial.CodedROBDDSize)
				}
				if par.ROMDDSize != serial.ROMDDSize {
					t.Errorf("%s workers=%d: ROMDD size differs: %d vs %d", name, workers, par.ROMDDSize, serial.ROMDDSize)
				}
				// The conversion statistics are layer-set cardinalities
				// and simulation counts over the same entry sets —
				// deterministic.
				if par.Stats.Convert.SimSteps != serial.Stats.Convert.SimSteps {
					t.Errorf("%s workers=%d: SimSteps differ: %d vs %d", name, workers, par.Stats.Convert.SimSteps, serial.Stats.Convert.SimSteps)
				}
				for g := range serial.Stats.Convert.EntryNodes {
					if par.Stats.Convert.EntryNodes[g] != serial.Stats.Convert.EntryNodes[g] {
						t.Errorf("%s workers=%d: EntryNodes[%d] differ: %d vs %d", name, workers, g,
							par.Stats.Convert.EntryNodes[g], serial.Stats.Convert.EntryNodes[g])
					}
				}
			}
		}
	}
}

// TestParallelBuildReevaluator checks the Reevaluator route: a sweep
// on a model built while other builds run must be bit-identical to
// the same sweep on a model built on its own.
func TestParallelBuildReevaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := randomOracleSystem(rng, 5)
	dist := randomDistribution(rng)
	base := Options{Defects: dist, Epsilon: 1e-2}
	rs, err := NewReevaluator(sys, base)
	if err != nil {
		t.Fatalf("serial reevaluator: %v", err)
	}
	const workers = 4
	rps := make([]*Reevaluator, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range rps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rps[w], errs[w] = NewReevaluator(sys, base)
		}(w)
	}
	wg.Wait()
	ps := make([]float64, len(sys.Components))
	for i := range ps {
		ps[i] = 0.01 + 0.1*float64(i+1)/float64(len(ps))
	}
	ys, _, err := rs.Yield(ps, dist)
	if err != nil {
		t.Fatal(err)
	}
	for w, rp := range rps {
		if errs[w] != nil {
			t.Fatalf("parallel reevaluator %d: %v", w, errs[w])
		}
		if rs.Result.Yield != rp.Result.Yield || rs.Result.ROMDDSize != rp.Result.ROMDDSize {
			t.Fatalf("build results differ: yield %.17g vs %.17g, romdd %d vs %d",
				rs.Result.Yield, rp.Result.Yield, rs.Result.ROMDDSize, rp.Result.ROMDDSize)
		}
		yp, _, err := rp.Yield(ps, dist)
		if err != nil {
			t.Fatal(err)
		}
		if ys != yp {
			t.Fatalf("reevaluated yields differ: %.17g vs %.17g", ys, yp)
		}
	}
}
