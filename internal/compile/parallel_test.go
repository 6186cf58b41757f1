package compile

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/logic"
)

// workerCounts are the numbers of goroutines that compile the same
// netlist at once, each on a manager of its own. The engine keeps all
// of its state in the manager, so builds running in parallel — the
// server's concurrent model builds, the table runner's workers — must
// not see each other.
var workerCounts = []int{1, 2, 4, 8}

// compileInParallel compiles n on workers goroutines at once, each
// into its own fresh manager made by newManager, and returns the
// managers, roots and errors by goroutine.
func compileInParallel(n *logic.Netlist, levels []int, workers int, newManager func() *bdd.Manager) ([]*bdd.Manager, []bdd.Node, []error) {
	ms := make([]*bdd.Manager, workers)
	roots := make([]bdd.Node, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ms[w] = newManager()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			roots[w], errs[w] = Netlist(ms[w], n, levels)
		}(w)
	}
	wg.Wait()
	return ms, roots, errs
}

// checkParallelAgainstSerial compiles n serially and on workers
// goroutines at once, and requires from every parallel build the same
// function (every assignment), the same diagram size, and a leak-free
// manager.
func checkParallelAgainstSerial(t *testing.T, n *logic.Netlist, k int, levels []int, workers int) {
	t.Helper()
	m := bdd.New(k)
	sroot, err := Netlist(m, n, levels)
	if err != nil {
		t.Fatalf("serial Netlist: %v", err)
	}
	defer m.Deref(sroot)

	ms, roots, errs := compileInParallel(n, levels, workers, func() *bdd.Manager { return bdd.New(k) })
	byLevel := make([]bool, k)
	in := make([]bool, k)
	for w, pm := range ms {
		if errs[w] != nil {
			t.Fatalf("workers=%d goroutine %d: Netlist: %v", workers, w, errs[w])
		}
		proot := roots[w]
		for mask := 0; mask < 1<<k; mask++ {
			for i := 0; i < k; i++ {
				in[i] = mask&(1<<i) != 0
				byLevel[levels[i]] = in[i]
			}
			want, err := n.Eval(in)
			if err != nil {
				t.Fatalf("netlist Eval: %v", err)
			}
			if got := pm.Eval(proot, byLevel); got != want {
				t.Fatalf("workers=%d goroutine %d mask=%b: parallel %v, netlist %v", workers, w, mask, got, want)
			}
		}
		if ss, ps := m.Size(sroot), pm.Size(proot); ss != ps {
			t.Fatalf("workers=%d goroutine %d: diagram size %d (parallel) != %d (serial)", workers, w, ps, ss)
		}
		pm.Deref(proot)
		pm.GC()
		if live := pm.Live(); live != 1 {
			t.Fatalf("workers=%d goroutine %d: %d live nodes after root Deref + GC, want 1 (reference leak)", workers, w, live)
		}
	}
}

func TestParallelMatchesSerialRandom(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(20260808))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := randomNetlist(rng, k)
		levels := rng.Perm(k)
		for _, workers := range workerCounts {
			checkParallelAgainstSerial(t, n, k, levels, workers)
		}
	}
}

// TestParallelWideFanin compiles gates of very wide fan-in, including
// duplicate operands, on And/Or/Nand and a threshold built from wide
// gates, in parallel builds.
func TestParallelWideFanin(t *testing.T) {
	const k = 10
	n := logic.New()
	xs := make([]logic.GateID, 0, 53)
	ins := make([]logic.GateID, k)
	for i := range ins {
		ins[i] = n.Input(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < cap(xs); i++ {
		xs = append(xs, ins[i%k]) // duplicates on purpose
	}
	wideOr := n.Or(xs...)
	wideAnd := n.And(xs...)
	n.SetOutput(n.Xor(n.Nand(xs...), n.And(wideOr, n.AtLeast(k/2, ins...), n.Not(wideAnd))))
	for _, workers := range workerCounts {
		checkParallelAgainstSerial(t, n, k, identityLevels(k), workers)
	}
}

// TestParallelNodeLimit checks that each parallel build enforces its
// own manager's node limit.
func TestParallelNodeLimit(t *testing.T) {
	n := logic.New()
	const k = 12
	xs := make([]logic.GateID, k)
	for i := range xs {
		xs[i] = n.Input(fmt.Sprintf("x%d", i))
	}
	n.SetOutput(n.AtLeast(k/2, xs...))
	for _, workers := range workerCounts {
		_, _, errs := compileInParallel(n, identityLevels(k), workers,
			func() *bdd.Manager { return bdd.New(k, bdd.WithNodeLimit(10)) })
		for w, err := range errs {
			if !errors.Is(err, bdd.ErrNodeLimit) {
				t.Fatalf("workers=%d goroutine %d: err = %v, want ErrNodeLimit", workers, w, err)
			}
		}
	}
}

// TestParallelGCUnderPressure compiles a model that needs many
// transient nodes in parallel builds, and requires each to reach the
// serial diagram size.
func TestParallelGCUnderPressure(t *testing.T) {
	n := logic.New()
	const k = 16
	xs := make([]logic.GateID, k)
	for i := range xs {
		xs[i] = n.Input(fmt.Sprintf("x%d", i))
	}
	n.SetOutput(n.Xor(n.AtLeast(k/2, xs...), n.AtLeast(k/3, xs...)))
	m := bdd.New(k)
	sroot, err := Netlist(m, n, identityLevels(k))
	if err != nil {
		t.Fatal(err)
	}
	want := m.Size(sroot)
	for _, workers := range workerCounts {
		ms, roots, errs := compileInParallel(n, identityLevels(k), workers, func() *bdd.Manager { return bdd.New(k) })
		for w, pm := range ms {
			if errs[w] != nil {
				t.Fatalf("workers=%d goroutine %d: %v", workers, w, errs[w])
			}
			if got := pm.Size(roots[w]); got != want {
				t.Fatalf("workers=%d goroutine %d: size %d, want %d", workers, w, got, want)
			}
		}
	}
}
