package mdd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomDiagram builds a pseudo-random diagram over mixed domains for
// structural comparisons between the manager and its frozen snapshot.
func randomDiagram(t *testing.T, rng *rand.Rand) (*Manager, Node) {
	t.Helper()
	domains := []int{3, 2, 4, 2, 3}
	m := MustNew(domains)
	root := False
	for i := 0; i < 12; i++ {
		lv := rng.Intn(len(domains))
		v := rng.Intn(domains[lv])
		lit, err := m.LiteralEq(lv, v)
		if err != nil {
			t.Fatalf("LiteralEq: %v", err)
		}
		if rng.Intn(2) == 0 {
			root, err = m.Or(root, lit)
		} else {
			term, e2 := m.And(lit, root)
			if e2 != nil {
				t.Fatalf("And: %v", e2)
			}
			root, err = m.Xor(root, term)
		}
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
	}
	return m, root
}

func randomProbs(m *Manager, rng *rand.Rand) [][]float64 {
	probs := make([][]float64, m.NumVars())
	for l := range probs {
		row := make([]float64, m.Domain(l))
		sum := 0.0
		for v := range row {
			row[v] = rng.Float64()
			sum += row[v]
		}
		for v := range row {
			row[v] /= sum
		}
		probs[l] = row
	}
	return probs
}

func TestFrozenMatchesManager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m, root := randomDiagram(t, rng)
		f := m.Freeze(root)
		if got, want := f.Size(), m.Size(root); got != want {
			t.Fatalf("trial %d: frozen size %d, manager %d", trial, got, want)
		}
		probs := randomProbs(m, rng)
		want, err := m.Prob(root, probs)
		if err != nil {
			t.Fatalf("Manager.Prob: %v", err)
		}
		got, err := f.Prob(probs)
		if err != nil {
			t.Fatalf("Frozen.Prob: %v", err)
		}
		// The frozen pass visits nodes in a fixed topological order and
		// the recursive pass in DFS order; both sum the same terms per
		// node, so the results agree exactly.
		if got != want {
			t.Fatalf("trial %d: frozen prob %v, manager %v", trial, got, want)
		}
		var buf ProbBuffer
		got2, err := f.ProbWith(probs, &buf)
		if err != nil || got2 != got {
			t.Fatalf("ProbWith: %v, %v (want %v)", got2, err, got)
		}
		ms, fs := m.ComputeStats(root), f.ComputeStats()
		if ms.Nodes != fs.Nodes || ms.MaxWidth != fs.MaxWidth || math.Abs(ms.AvgDegree-fs.AvgDegree) > 1e-12 {
			t.Fatalf("trial %d: stats differ: manager %+v, frozen %+v", trial, ms, fs)
		}
		for l := range ms.PerLevel {
			if ms.PerLevel[l] != fs.PerLevel[l] {
				t.Fatalf("trial %d: level %d width %d vs %d", trial, l, ms.PerLevel[l], fs.PerLevel[l])
			}
		}
		// Random assignments evaluate identically.
		for i := 0; i < 20; i++ {
			assign := make([]int, m.NumVars())
			for l := range assign {
				assign[l] = rng.Intn(m.Domain(l))
			}
			mv, err := m.Eval(root, assign)
			if err != nil {
				t.Fatalf("Manager.Eval: %v", err)
			}
			fv, err := f.Eval(assign)
			if err != nil {
				t.Fatalf("Frozen.Eval: %v", err)
			}
			if mv != fv {
				t.Fatalf("assign %v: manager %v, frozen %v", assign, mv, fv)
			}
		}
	}
}

func TestFrozenTerminals(t *testing.T) {
	m := MustNew([]int{2, 3})
	for _, root := range []Node{False, True} {
		f := m.Freeze(root)
		if f.Size() != 1 {
			t.Errorf("Freeze(%v).Size() = %d, want 1", root, f.Size())
		}
		p, err := f.Prob([][]float64{{0.5, 0.5}, {0.2, 0.3, 0.5}})
		if err != nil {
			t.Fatalf("Prob: %v", err)
		}
		want := 0.0
		if root == True {
			want = 1
		}
		if p != want {
			t.Errorf("Freeze(%v).Prob = %v, want %v", root, p, want)
		}
		got, err := f.Eval([]int{0, 0})
		if err != nil || got != (root == True) {
			t.Errorf("Freeze(%v).Eval = %v, %v", root, got, err)
		}
	}
}

func TestFrozenValidation(t *testing.T) {
	m := MustNew([]int{2, 2})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 1)
	root, _ := m.And(a, b)
	f := m.Freeze(root)
	if _, err := f.Prob([][]float64{{0.5, 0.5}}); err == nil {
		t.Error("short probability table accepted")
	}
	if _, err := f.Prob([][]float64{{0.5, 0.5}, {0.1, 0.2, 0.7}}); err == nil {
		t.Error("wrong row width accepted")
	}
	if _, err := f.Eval([]int{1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := f.Eval([]int{2, 0}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if f.NumVars() != 2 || f.Domain(0) != 2 {
		t.Errorf("shape accessors: vars %d, domain(0) %d", f.NumVars(), f.Domain(0))
	}
}

// TestFrozenDetachedFromManager freezes, then keeps building on the
// manager; the snapshot must be unaffected.
func TestFrozenDetachedFromManager(t *testing.T) {
	m := MustNew([]int{2, 2, 2})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 1)
	root, _ := m.Or(a, b)
	f := m.Freeze(root)
	probs := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	before, _ := f.Prob(probs)
	// Grow the manager substantially.
	for v := 0; v < 2; v++ {
		c, _ := m.LiteralEq(2, v)
		if _, err := m.Xor(root, c); err != nil {
			t.Fatalf("Xor: %v", err)
		}
	}
	after, _ := f.Prob(probs)
	if before != after {
		t.Errorf("snapshot changed after manager growth: %v vs %v", before, after)
	}
}

// TestFrozenConcurrentReads hammers one snapshot (and the read-only
// manager paths) from many goroutines; run under -race this is the
// concurrency contract test for the evaluation engine's lowest layer.
func TestFrozenConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, root := randomDiagram(t, rng)
	f := m.Freeze(root)
	probs := randomProbs(m, rng)
	want, err := f.Prob(probs)
	if err != nil {
		t.Fatalf("Prob: %v", err)
	}
	wantSize := m.Size(root)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf ProbBuffer
			for i := 0; i < 200; i++ {
				got, err := f.ProbWith(probs, &buf)
				if err != nil || got != want {
					errs <- err
					return
				}
				if mp, err := m.Prob(root, probs); err != nil || mp != want {
					errs <- err
					return
				}
				if m.Size(root) != wantSize || f.Size() != wantSize {
					errs <- nil
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent read mismatch (err=%v)", e)
	}
}

// zeroedProbs is randomProbs with zero entries mixed in: about a third
// of the values of every row are zeroed, and some rows keep a single
// nonzero value. The Frozen pass adds those zero terms where
// Manager.Prob skips them, so these tables exercise the case where the
// two passes do different work yet must agree bit for bit.
func zeroedProbs(m *Manager, rng *rand.Rand) [][]float64 {
	probs := randomProbs(m, rng)
	for _, row := range probs {
		if rng.Intn(4) == 0 {
			keep := rng.Intn(len(row))
			for v := range row {
				if v != keep {
					row[v] = 0
				}
			}
			row[keep] = 1
			continue
		}
		for v := range row {
			if rng.Intn(3) == 0 {
				row[v] = 0
			}
		}
	}
	return probs
}

// TestFrozenProbBitIdenticalToManager checks Frozen.Prob against
// Manager.Prob with ==, on random ROMDDs over several domain shapes and
// on probability tables with and without zero entries.
func TestFrozenProbBitIdenticalToManager(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := [][]int{{2, 2, 2, 2}, {3, 5, 2, 4, 3}, {6, 7, 7, 7}, {4, 2, 9, 2, 3, 5}}
	for trial := 0; trial < 200; trial++ {
		m := MustNew(shapes[trial%len(shapes)])
		root, _, err := randomMDD(m, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Freeze(root)
		var buf ProbBuffer
		for i := 0; i < 8; i++ {
			probs := randomProbs(m, rng)
			if i%2 == 1 {
				probs = zeroedProbs(m, rng)
			}
			want, err := m.Prob(root, probs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Prob(probs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d table %d: frozen %v (%#x), manager %v (%#x)",
					trial, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got2, err := f.ProbWith(probs, &buf); err != nil || math.Float64bits(got2) != math.Float64bits(want) {
				t.Fatalf("trial %d table %d: ProbWith %v, %v; want %v", trial, i, got2, err, want)
			}
		}
	}
}

// freezeRecursive is the reference numbering of Freeze: a recursive
// post-order DFS over the children in domain-value order. Encoded
// models store this numbering, so Freeze must reproduce it exactly.
func freezeRecursive(m *Manager, n Node) FrozenData {
	d := FrozenData{
		Domains: append([]int32(nil), m.domains...),
		Levels:  []int32{int32(len(m.domains)), int32(len(m.domains))},
		Root:    int32(n),
	}
	if m.IsTerminal(n) {
		return d
	}
	remap := map[Node]int32{False: 0, True: 1}
	var walk func(Node) int32
	walk = func(x Node) int32 {
		if idx, ok := remap[x]; ok {
			return idx
		}
		var mapped []int32
		for _, k := range m.Kids(x) {
			mapped = append(mapped, walk(k))
		}
		idx := int32(len(d.Levels))
		d.Levels = append(d.Levels, int32(m.Level(x)))
		d.Kids = append(d.Kids, mapped...)
		remap[x] = idx
		return idx
	}
	d.Root = walk(n)
	return d
}

func TestFreezeNumberingMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := MustNew([]int{3, 2, 5, 4, 2})
		root, _, err := randomMDD(m, rng, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Freeze(root).Data(), freezeRecursive(m, root)
		if got.Root != want.Root || !slices.Equal(got.Levels, want.Levels) ||
			!slices.Equal(got.Kids, want.Kids) || !slices.Equal(got.Domains, want.Domains) {
			t.Fatalf("trial %d: Freeze data %+v, recursive reference %+v", trial, got, want)
		}
	}
}
