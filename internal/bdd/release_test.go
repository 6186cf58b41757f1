package bdd

import (
	"math/rand"
	"testing"
)

// TestReleaseTables pins the contract of ReleaseTables with counters:
// the construction-only tables are gone afterwards, read-only
// traversals still see the same diagrams, and the next operation that
// creates nodes rebuilds the unique table so it returns the same
// canonical handles as before the release.
func TestReleaseTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"complement", nil},
		{"classic", []Option{WithoutComplementEdges()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nvars = 10
			m := New(nvars, tc.opts...)
			rng := rand.New(rand.NewSource(7))
			var roots []Node
			var evals []func([]bool) bool
			for range 12 {
				r, eval, err := randomFormula(m, rng, 6, nvars)
				if err != nil {
					t.Fatal(err)
				}
				roots = append(roots, m.Ref(r))
				evals = append(evals, eval)
			}
			f, g, h := roots[0], roots[1], roots[2]
			ite, err := m.ITE(f, g, h)
			if err != nil {
				t.Fatal(err)
			}
			and, err := m.And(roots[3:]...)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Stats()
			if before.ApplyCacheSize == 0 || before.UniqueTableBuckets == 0 {
				t.Fatalf("tables empty before the release: %+v", before)
			}
			sizes := make([]int, len(roots))
			for i, r := range roots {
				sizes[i] = m.Size(r)
			}
			shared := m.SizeShared(roots)

			m.ReleaseTables()
			st := m.Stats()
			if st.ApplyCacheSize != 0 || st.UniqueTableBuckets != 0 {
				t.Fatalf("after release: %d cache entries, %d buckets; want 0 and 0", st.ApplyCacheSize, st.UniqueTableBuckets)
			}
			if st.Live != before.Live || st.ArenaNodes != before.ArenaNodes || st.NodesCreated != before.NodesCreated {
				t.Errorf("release changed the arena: %+v -> %+v", before, st)
			}

			// Read-only traversals work on the released manager and do
			// not bring the construction tables back.
			for i, r := range roots {
				if got := m.Size(r); got != sizes[i] {
					t.Errorf("root %d: size %d after release, want %d", i, got, sizes[i])
				}
			}
			if got := m.SizeShared(roots); got != shared {
				t.Errorf("shared size %d after release, want %d", got, shared)
			}
			assign := make([]bool, nvars)
			for mask := 0; mask < 1<<nvars; mask += 37 {
				for i := range assign {
					assign[i] = mask&(1<<i) != 0
				}
				for i, r := range roots {
					if m.Eval(r, assign) != evals[i](assign) {
						t.Fatalf("root %d disagrees with its formula after release", i)
					}
				}
			}
			if st := m.Stats(); st.ApplyCacheSize != 0 || st.UniqueTableBuckets != 0 {
				t.Errorf("read-only traversals rebuilt the tables: %+v", st)
			}

			// The next node-creating operations rebuild the tables and
			// find the existing canonical nodes.
			created := m.Stats().NodesCreated
			if got, err := m.ITE(f, g, h); err != nil || got != ite {
				t.Errorf("ITE after release = %v (%v), want %v", got, err, ite)
			}
			if got, err := m.And(roots[3:]...); err != nil || got != and {
				t.Errorf("And after release = %v (%v), want %v", got, err, and)
			}
			for lv := range nvars {
				v, err := m.Var(lv)
				if err != nil {
					t.Fatal(err)
				}
				if m.Level(v) != lv || m.Lo(v) != False || m.Hi(v) != True {
					t.Errorf("Var(%d) after release is not the variable", lv)
				}
			}
			st = m.Stats()
			if st.NodesCreated != created {
				t.Errorf("canonical operations created %d nodes after release, want 0", st.NodesCreated-created)
			}
			if st.ApplyCacheSize == 0 || st.UniqueTableBuckets < st.ArenaNodes {
				t.Errorf("tables not rebuilt for the arena: %+v", st)
			}

			// Rebuilding a formula from the same seed reaches the same
			// handle: the rehashed table is the canonical one.
			rng2 := rand.New(rand.NewSource(7))
			m.ReleaseTables()
			again, _, err := randomFormula(m, rng2, 6, nvars)
			if err != nil {
				t.Fatal(err)
			}
			if again != roots[0] {
				t.Errorf("rebuilt formula handle %v, want %v", again, roots[0])
			}
		})
	}
}

// TestReleaseTablesThenGC checks that collection and Restrict on a
// released manager rebuild what they need and keep referenced
// diagrams intact.
func TestReleaseTablesThenGC(t *testing.T) {
	const nvars = 8
	m := New(nvars)
	rng := rand.New(rand.NewSource(3))
	keep, eval, err := randomFormula(m, rng, 6, nvars)
	if err != nil {
		t.Fatal(err)
	}
	m.Ref(keep)
	for range 8 {
		if _, _, err := randomFormula(m, rng, 6, nvars); err != nil {
			t.Fatal(err)
		}
	}
	size := m.Size(keep)
	m.ReleaseTables()
	if freed := m.GC(); freed <= 0 {
		t.Errorf("GC after release freed %d nodes, want > 0", freed)
	}
	if got := m.Size(keep); got != size {
		t.Errorf("size %d after release + GC, want %d", got, size)
	}
	m.ReleaseTables()
	r, err := m.Restrict(keep, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]bool, nvars)
	for mask := 0; mask < 1<<nvars; mask++ {
		for i := range assign {
			assign[i] = mask&(1<<i) != 0
		}
		if m.Eval(keep, assign) != eval(assign) {
			t.Fatal("kept diagram changed after release + GC")
		}
		if assign[0] && m.Eval(r, assign) != eval(assign) {
			t.Fatal("Restrict after release disagrees with the formula")
		}
	}
}
