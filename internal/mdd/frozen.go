package mdd

import "fmt"

// Frozen is an immutable compact snapshot of one rooted diagram,
// produced by Manager.Freeze. It owns its own node arrays — only the
// nodes reachable from the root, renumbered in topological (children
// before parents) order — and shares nothing with the manager, so it
// is safe to evaluate from any number of goroutines with no external
// synchronization, even while the original manager keeps growing.
//
// Beyond safety, the compaction pays for itself: Prob becomes a single
// forward pass over a dense array (no recursion, no hash lookups, good
// locality), which is the hot loop of every yield sweep.
type Frozen struct {
	domains []int32
	// levels[i] is the level of compact node i; terminals keep indices
	// 0 (False) and 1 (True) with level == len(domains).
	levels []int32
	// kidsOff[i] points into kids; node i's children are
	// kids[kidsOff[i] : kidsOff[i]+domains[levels[i]]].
	kidsOff []int32
	kids    []int32
	// root is the compact index of the frozen root. Children precede
	// parents, so the root is always the last node (or a terminal).
	root int32
}

// Freeze extracts the diagram rooted at n into an immutable snapshot.
// The manager is only read; it may be discarded or mutated afterwards
// without affecting the snapshot.
func (m *Manager) Freeze(n Node) *Frozen {
	f := &Frozen{
		domains: append([]int32(nil), m.domains...),
		levels:  []int32{int32(len(m.domains)), int32(len(m.domains))},
		kidsOff: []int32{0, 0},
		root:    int32(n),
	}
	if m.IsTerminal(n) {
		return f
	}
	// A post-order DFS assigns compact indices so that children precede
	// parents; remap[] carries old → new indices. The walk is iterative
	// (an explicit stack of (node, next child) frames) and visits the
	// children in domain-value order, which fixes the numbering that
	// encoded models depend on. A node is emitted once all its children
	// are numbered, with their compact indices written straight into
	// f.kids. (A counting pass that sizes the arrays exactly was faster
	// still, but allocating less here let the build's garbage outlive
	// the server's store write and raised its peak RSS.)
	remap := make([]int32, len(m.nodes))
	for i := range remap {
		remap[i] = nilIdx
	}
	remap[False], remap[True] = 0, 1
	type frame struct {
		node Node
		next int
	}
	stack := []frame{{node: n}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		kids := m.Kids(top.node)
		for top.next < len(kids) && remap[kids[top.next]] != nilIdx {
			top.next++
		}
		if top.next < len(kids) {
			k := kids[top.next]
			top.next++
			stack = append(stack, frame{node: k})
			continue
		}
		remap[top.node] = int32(len(f.levels))
		f.levels = append(f.levels, m.nodes[top.node].level)
		f.kidsOff = append(f.kidsOff, int32(len(f.kids)))
		for _, k := range kids {
			f.kids = append(f.kids, remap[k])
		}
		stack = stack[:len(stack)-1]
	}
	f.root = remap[n]
	return f
}

// FrozenData is the raw arena content of a Frozen snapshot, exposed
// for serialization. Levels covers every node including the two
// terminal slots (indices 0 and 1, whose level is len(Domains)); Kids
// concatenates the child arrays of the internal nodes in node order.
// The per-node child offsets are deliberately absent: they are a
// prefix sum of the domain sizes along Levels, so FrozenFromData
// recomputes them, removing a whole class of inconsistent input.
type FrozenData struct {
	Domains []int32
	Levels  []int32
	Kids    []int32
	Root    int32
}

// Data returns the snapshot's arena for serialization. The returned
// slices alias the snapshot's internal arrays and must not be
// modified.
func (f *Frozen) Data() FrozenData {
	return FrozenData{Domains: f.domains, Levels: f.levels, Kids: f.kids, Root: f.root}
}

// FrozenFromData reconstructs a Frozen snapshot from its raw arena,
// validating every structural invariant evaluation relies on, so that
// a snapshot built from arbitrary (even hostile) input can never make
// Prob, Eval, Size or ComputeStats read out of bounds or loop:
//
//   - every domain has ≥ 2 values (the Manager's own constraint);
//   - nodes 0 and 1 are the terminals (level == len(Domains));
//   - every internal node's level is a valid variable level;
//   - the concatenated child arrays cover Kids exactly;
//   - children strictly precede their parent (kid index < node index),
//     which both guarantees Eval terminates and gives Prob its single
//     forward pass;
//   - internal children sit at strictly deeper levels than their
//     parent (the ordered-diagram property Manager.MkNode enforces);
//   - the root is a valid node index.
//
// The function takes ownership of the slices in d; callers must not
// modify them afterwards.
func FrozenFromData(d FrozenData) (*Frozen, error) {
	const maxLen = 1<<31 - 1
	if len(d.Domains) > maxLen || len(d.Levels) > maxLen || len(d.Kids) > maxLen {
		return nil, fmt.Errorf("mdd: frozen data: arrays exceed int32 indexing")
	}
	nvars := int32(len(d.Domains))
	for l, dom := range d.Domains {
		if dom < 2 {
			return nil, fmt.Errorf("mdd: frozen data: domain of level %d has size %d, need ≥ 2", l, dom)
		}
	}
	if len(d.Levels) < 2 {
		return nil, fmt.Errorf("mdd: frozen data: %d nodes, need the 2 terminals", len(d.Levels))
	}
	if d.Levels[0] != nvars || d.Levels[1] != nvars {
		return nil, fmt.Errorf("mdd: frozen data: terminal levels (%d, %d) != %d", d.Levels[0], d.Levels[1], nvars)
	}
	kidsOff := make([]int32, len(d.Levels))
	off := int64(0)
	for i := 2; i < len(d.Levels); i++ {
		lv := d.Levels[i]
		if lv < 0 || lv >= nvars {
			return nil, fmt.Errorf("mdd: frozen data: node %d at level %d outside [0,%d)", i, lv, nvars)
		}
		if off > int64(len(d.Kids)) {
			return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries, Kids has %d", off, len(d.Kids))
		}
		kidsOff[i] = int32(off)
		off += int64(d.Domains[lv])
	}
	if off != int64(len(d.Kids)) {
		return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries, Kids has %d", off, len(d.Kids))
	}
	for i := 2; i < len(d.Levels); i++ {
		end := int64(len(d.Kids))
		if i+1 < len(d.Levels) {
			end = int64(kidsOff[i+1])
		}
		for _, k := range d.Kids[kidsOff[i]:end] {
			if k < 0 || int(k) >= i {
				return nil, fmt.Errorf("mdd: frozen data: node %d has child %d outside [0,%d)", i, k, i)
			}
			if k >= 2 && d.Levels[k] <= d.Levels[i] {
				return nil, fmt.Errorf("mdd: frozen data: node %d (level %d) has child %d at level %d, want deeper", i, d.Levels[i], k, d.Levels[k])
			}
		}
	}
	if d.Root < 0 || int(d.Root) >= len(d.Levels) {
		return nil, fmt.Errorf("mdd: frozen data: root %d outside [0,%d)", d.Root, len(d.Levels))
	}
	return &Frozen{domains: d.Domains, levels: d.Levels, kidsOff: kidsOff, kids: d.Kids, root: d.Root}, nil
}

// NumVars returns the number of variable levels.
func (f *Frozen) NumVars() int { return len(f.domains) }

// Domain returns the domain size of the variable at the given level.
func (f *Frozen) Domain(level int) int { return int(f.domains[level]) }

// NumNodes returns the node count of the snapshot including both
// terminals (the conventional diagram size counts only reached
// terminals — see Size).
func (f *Frozen) NumNodes() int { return len(f.levels) }

// Size returns the number of nodes in the frozen diagram, counting
// terminals only when the root actually reaches them — the same
// convention as Manager.Size, so sizes agree across Freeze.
func (f *Frozen) Size() int {
	if f.root == int32(False) || f.root == int32(True) {
		return 1
	}
	reached := [2]bool{}
	for i := 2; i < len(f.levels); i++ {
		d := int(f.domains[f.levels[i]])
		off := int(f.kidsOff[i])
		for _, k := range f.kids[off : off+d] {
			if k < 2 {
				reached[k] = true
			}
		}
	}
	n := len(f.levels) - 2
	if reached[0] {
		n++
	}
	if reached[1] {
		n++
	}
	return n
}

func (f *Frozen) checkProbs(probs [][]float64) error {
	if len(probs) < len(f.domains) {
		return fmt.Errorf("mdd: probability table has %d levels, need %d", len(probs), len(f.domains))
	}
	for l, p := range probs[:len(f.domains)] {
		if len(p) != int(f.domains[l]) {
			return fmt.Errorf("mdd: probability row %d has %d entries, want %d", l, len(p), f.domains[l])
		}
	}
	return nil
}

// Prob returns P(f = 1) under independent per-level value
// distributions, exactly as Manager.Prob, but as one forward pass over
// the topologically ordered node array. All scratch state is local, so
// any number of goroutines may call Prob concurrently on one snapshot.
func (f *Frozen) Prob(probs [][]float64) (float64, error) {
	if err := f.checkProbs(probs); err != nil {
		return 0, err
	}
	return f.probInto(probs, make([]float64, len(f.levels))), nil
}

// ProbBuffer is reusable scratch space for ProbWith, letting tight
// sweep loops amortize the one allocation Prob makes per call. Each
// goroutine must use its own buffer.
type ProbBuffer struct {
	vals []float64
}

// ProbWith is Prob using caller-owned scratch space.
func (f *Frozen) ProbWith(probs [][]float64, buf *ProbBuffer) (float64, error) {
	if err := f.checkProbs(probs); err != nil {
		return 0, err
	}
	if cap(buf.vals) < len(f.levels) {
		buf.vals = make([]float64, len(f.levels))
	}
	return f.probInto(probs, buf.vals[:len(f.levels)]), nil
}

func (f *Frozen) probInto(probs [][]float64, vals []float64) float64 {
	vals[False], vals[True] = 0, 1
	for i := 2; i < len(f.levels); i++ {
		lv := f.levels[i]
		row := probs[lv]
		off := int(f.kidsOff[i])
		kids := f.kids[off : off+len(row)]
		// No p != 0 test as in Manager.Prob: a zero p adds p·x = +0,
		// which leaves the sum bit-identical for finite values, and the
		// loop stays branch-free.
		total := 0.0
		for v, p := range row {
			total += p * vals[kids[v]]
		}
		vals[i] = total
	}
	return vals[f.root]
}

// Eval evaluates the frozen function under the assignment
// (assign[level] is the value of the variable at that level).
func (f *Frozen) Eval(assign []int) (bool, error) {
	n := f.root
	for n >= 2 {
		lv := int(f.levels[n])
		if lv >= len(assign) {
			return false, fmt.Errorf("mdd: assignment too short: need level %d, have %d values", lv, len(assign))
		}
		v := assign[lv]
		if v < 0 || v >= int(f.domains[lv]) {
			return false, fmt.Errorf("mdd: value %d outside domain of level %d (size %d)", v, lv, f.domains[lv])
		}
		n = f.kids[int(f.kidsOff[n])+v]
	}
	return n == int32(True), nil
}

// ComputeStats returns the structural statistics of the frozen
// diagram, matching Manager.ComputeStats on the original root.
func (f *Frozen) ComputeStats() Stats {
	s := Stats{PerLevel: make([]int, len(f.domains))}
	edges := 0
	for i := 2; i < len(f.levels); i++ {
		lv := int(f.levels[i])
		s.PerLevel[lv]++
		if s.PerLevel[lv] > s.MaxWidth {
			s.MaxWidth = s.PerLevel[lv]
		}
		edges += int(f.domains[lv])
	}
	s.Nodes = f.Size()
	if internal := len(f.levels) - 2; internal > 0 {
		s.AvgDegree = float64(edges) / float64(internal)
	}
	return s
}
