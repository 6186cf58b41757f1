// Package yield implements the paper's combinatorial method for the
// evaluation of yield of fault-tolerant systems-on-chip, end to end:
//
//  1. map the defect model to the lethal-defect model (Q → Q', P → P'),
//  2. choose the truncation point M for the requested error bound ε,
//  3. synthesize the generalized function G(w, v_1..v_M),
//  4. order the variables (heuristics of Section 2),
//  5. compile the coded ROBDD of G gate by gate,
//  6. convert it to the ROMDD,
//  7. evaluate P(G = 1) by the probability-weighted depth-first
//     traversal, giving Y_M = 1 − P(G = 1) with Y_M ≤ Y ≤ Y_M + ε.
//
// Alternative evaluation routes (direct walk of the coded ROBDD, and
// direct ROMDD construction via MDD apply — the ablation of the
// coded-ROBDD consensus claim) and an exact brute-force reference for
// small systems are provided alongside.
package yield

import (
	"errors"
	"fmt"
	"math"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// ErrNodeLimit reports that the decision-diagram engines exceeded the
// configured node budget — the reproduction of the paper's "—"
// (memory exhaustion) entries.
var ErrNodeLimit = bdd.ErrNodeLimit

// Component is one component of the system-on-chip.
type Component struct {
	// Name identifies the component (diagnostics only).
	Name string
	// P is the paper's P_i: the probability that a given manufacturing
	// defect affects this component and is lethal.
	P float64
}

// System describes a fault-tolerant system-on-chip: its components and
// the fault-tree function over their failed states.
type System struct {
	// Name labels the system in reports.
	Name string
	// Components lists the C components; Components[i] corresponds to
	// the i-th declared input of FaultTree.
	Components []Component
	// FaultTree computes 1 iff the system is NOT functioning, given
	// x_i = 1 iff component i is failed. Its inputs, in declaration
	// order, are the components.
	FaultTree *logic.Netlist
}

// Validate checks structural consistency of the system description.
func (s *System) Validate() error {
	if s == nil {
		return errors.New("yield: nil system")
	}
	if len(s.Components) < 2 {
		return fmt.Errorf("yield: system %q has %d components, need ≥ 2", s.Name, len(s.Components))
	}
	if s.FaultTree == nil {
		return fmt.Errorf("yield: system %q has no fault tree", s.Name)
	}
	if _, ok := s.FaultTree.Output(); !ok {
		return fmt.Errorf("yield: system %q fault tree has no output", s.Name)
	}
	if got := s.FaultTree.NumInputs(); got != len(s.Components) {
		return fmt.Errorf("yield: system %q fault tree has %d inputs for %d components", s.Name, got, len(s.Components))
	}
	pl := 0.0
	for i, c := range s.Components {
		if !(c.P >= 0) || math.IsInf(c.P, 0) {
			return fmt.Errorf("yield: component %d (%s) has P = %v", i, c.Name, c.P)
		}
		pl += c.P
	}
	if pl <= 0 {
		return fmt.Errorf("yield: system %q has P_L = %v, need > 0", s.Name, pl)
	}
	if pl > 1+1e-12 {
		return fmt.Errorf("yield: system %q has P_L = %v > 1", s.Name, pl)
	}
	return nil
}

// PL returns P_L = Σ_i P_i, the probability that a given defect is
// lethal.
func (s *System) PL() float64 {
	pl := 0.0
	for _, c := range s.Components {
		pl += c.P
	}
	return pl
}

// Options configure an evaluation.
type Options struct {
	// Defects is the distribution of the number of manufacturing
	// defects (Q_k). Required.
	Defects defects.Distribution
	// Epsilon is the absolute error requirement on the yield; the
	// truncation point M is the smallest value meeting it.
	// Defaults to 1e-4.
	Epsilon float64
	// MVOrder is the ordering of the multiple-valued variables.
	// Defaults to the weight heuristic (the paper's best).
	MVOrder order.MVKind
	// BitOrder is the ordering of the bits inside each group.
	// Defaults to most-to-least significant (the paper's best).
	BitOrder order.BitKind
	// NodeLimit bounds live ROBDD nodes (and ROMDD nodes); 0 means
	// unlimited. Exceeding it aborts with ErrNodeLimit.
	NodeLimit int
	// ForceM overrides the computed truncation point when > 0 has been
	// set together with ForceMSet; used by experiments that pin M.
	ForceM    int
	ForceMSet bool
	// Recorder, when non-nil, receives the run's metrics: a span tree
	// of the pipeline phases, the decision-diagram engine counters
	// (apply-cache hits/misses, unique-table growth, GC activity), and
	// the structural gauges of the result. A nil Recorder disables all
	// metric recording at near-zero cost — hot paths guard on it.
	Recorder *obs.Registry
	// BuildState, when non-nil, receives live phase transitions and
	// work-unit progress (gates compiled, conversion entry nodes) as
	// the build runs; any goroutine may Snapshot it concurrently. This
	// is what the yieldd /v1/builds endpoint and the flight-recorder
	// sampler read. Excluded from ModelKey: it does not affect results.
	BuildState *obs.BuildState
	// Tracer, when non-nil, records timed work slices (one per compiled
	// gate, one for the conversion) on the build track of the Chrome
	// trace export. Excluded from ModelKey like Recorder and BuildState.
	Tracer *obs.Tracer
	// bddOptions carries extra engine options into the coded-ROBDD
	// manager. Unexported: it exists so the equivalence tests can run
	// the identical pipeline with bdd.WithoutComplementEdges and assert
	// bit-identical yields; it is deliberately not part of the public
	// surface (and is excluded from ModelKey like the other
	// result-invariant knobs).
	bddOptions []bdd.Option
}

// bddManagerOptions assembles the engine options for the coded-ROBDD
// manager: the node budget plus any test-only overrides.
func (o *Options) bddManagerOptions() []bdd.Option {
	return append([]bdd.Option{bdd.WithNodeLimit(o.NodeLimit)}, o.bddOptions...)
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Defects == nil {
		return out, errors.New("yield: Options.Defects is required")
	}
	if out.Epsilon == 0 {
		out.Epsilon = 1e-4
	}
	if !(out.Epsilon > 0 && out.Epsilon < 1) {
		return out, fmt.Errorf("yield: Epsilon = %v outside (0,1)", out.Epsilon)
	}
	if out.MVOrder == 0 {
		out.MVOrder = order.MVWeight
	}
	if out.BitOrder == 0 {
		out.BitOrder = order.BitML
	}
	if !order.Compatible(out.MVOrder, out.BitOrder) {
		return out, fmt.Errorf("yield: MV ordering %v cannot be combined with bit ordering %v", out.MVOrder, out.BitOrder)
	}
	if out.NodeLimit < 0 {
		return out, fmt.Errorf("yield: NodeLimit = %d < 0", out.NodeLimit)
	}
	return out, nil
}

// Phases records per-phase wall-clock times, covering the pipeline end
// to end: model preparation (thinning, truncation point), G-function
// synthesis, variable ordering, coded-ROBDD compilation, ROMDD
// conversion, and probability evaluation.
type Phases struct {
	Prepare time.Duration
	Encode  time.Duration
	Order   time.Duration
	Compile time.Duration
	Convert time.Duration
	Eval    time.Duration
}

// Total returns the summed phase time.
func (p Phases) Total() time.Duration {
	return p.Prepare + p.Encode + p.Order + p.Compile + p.Convert + p.Eval
}

// Result reports the outcome of an evaluation.
type Result struct {
	// Yield is the pessimistic estimate Y_M; the true yield satisfies
	// Yield ≤ Y ≤ Yield + ErrorBound.
	Yield float64
	// ErrorBound is the actual tail mass beyond M (≤ Epsilon).
	ErrorBound float64
	// M is the truncation point used.
	M int
	// PL is Σ P_i; LambdaPrime the mean number of lethal defects.
	PL          float64
	LambdaPrime float64
	// GGates is the gate count of the synthesized G netlist;
	// BinaryVars its input count.
	GGates     int
	BinaryVars int
	// CodedROBDDSize is the node count of the final coded ROBDD;
	// ROBDDPeak the peak live ROBDD nodes over the whole run — the
	// maximum of the per-phase peaks Stats.CompilePeakLive and
	// Stats.ConvertPeakLive; ROMDDSize the node count of the ROMDD.
	CodedROBDDSize int
	ROBDDPeak      int
	ROMDDSize      int
	// Phases holds per-phase timings.
	Phases Phases
	// Stats aggregates the decision-diagram engines' internal
	// instrumentation (apply caches, unique tables, GC, per-layer
	// conversion work). It is populated by every route that builds
	// diagrams, independent of Options.Recorder.
	Stats EngineStats
}

// prepared carries the model quantities shared by all routes.
type prepared struct {
	opts   Options
	pprime []float64 // P'_i by component ordinal
	qprime []float64 // Q'_0..Q'_M
	tail   float64
	m      int
	pl     float64
	lethal defects.Distribution
}

func prepare(sys *System, opts Options) (*prepared, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	pl := sys.PL()
	lethal, err := defects.Thin(o.Defects, pl)
	if err != nil {
		return nil, err
	}
	m, _, err := defects.TruncationPoint(lethal, o.Epsilon)
	if err != nil {
		return nil, err
	}
	if o.ForceMSet {
		if o.ForceM < 0 {
			return nil, fmt.Errorf("yield: forced M = %d < 0", o.ForceM)
		}
		m = o.ForceM
	}
	qprime, tail, err := defects.PMFTable(lethal, m)
	if err != nil {
		return nil, err
	}
	pprime := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		pprime[i] = c.P / pl
	}
	return &prepared{opts: o, pprime: pprime, qprime: qprime, tail: tail, m: m, pl: pl, lethal: lethal}, nil
}

// probTable builds the per-MV-level value distributions in MV-level
// order given the plan's group sequence: row for w is [Q'_0..Q'_M,
// tail], rows for each v_l are P'.
func (p *prepared) probTable(groupSeq []int) [][]float64 {
	wRow := make([]float64, p.m+2)
	copy(wRow, p.qprime)
	wRow[p.m+1] = p.tail
	out := make([][]float64, len(groupSeq))
	for mvLevel, gi := range groupSeq {
		if gi == 0 {
			out[mvLevel] = wRow
		} else {
			out[mvLevel] = p.pprime
		}
	}
	return out
}

func (p *prepared) baseResult(g *encode.GFunc) *Result {
	return &Result{
		ErrorBound:  p.tail,
		M:           p.m,
		PL:          p.pl,
		LambdaPrime: p.lethal.Mean(),
		GGates:      g.Netlist.NumGates(),
		BinaryVars:  g.Netlist.NumInputs(),
	}
}

// groupMeta extracts the ordinal→(group, significance) maps from the
// synthesized G.
func groupMeta(g *encode.GFunc) (groupOf []int, bitOf []uint) {
	groupOf = make([]int, g.Netlist.NumInputs())
	bitOf = make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		nb := len(grp.Bits)
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(nb - 1 - j)
		}
	}
	return groupOf, bitOf
}

// Evaluate runs the full method of the paper and returns the yield
// estimate with its error bound and the structural statistics of
// Table 4. When Options.Recorder is set, the phases additionally
// report as a span tree and the engine counters flush into the
// registry.
func Evaluate(sys *System, opts Options) (*Result, error) {
	rec := opts.Recorder
	bs := opts.BuildState
	// The publisher starts (and its stop handshake runs) outside the
	// root span, so live publishing does not eat into the inter-phase
	// budget the span-coverage tests bound.
	stopLive := startLivePublisher(rec, bs)
	defer stopLive()
	evalSpan := rec.Span("evaluate")
	defer evalSpan.End()
	bs.StartPhase(obs.BuildPrepare, 0)
	defer bs.Finish()

	// The phases form one chain of sibling spans, opened with First and
	// Next, so they tile the root span; sp is the running phase, and
	// ending the root ends it.
	sp := evalSpan.First("prepare")
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	if err != nil {
		return nil, err
	}

	sp = sp.Next("encode")
	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	encDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Phases.Prepare = prepDur
	res.Phases.Encode = encDur

	sp = sp.Next("order")
	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	if err != nil {
		return nil, err
	}

	sp, mm, mroot, err := p.buildModel(sp, g, plan, res)
	if err != nil {
		evalSpan.End()
		res.Stats.publish(rec)
		publishResult(rec, res)
		return res, err
	}

	sp.Next("eval") // ends with the root span
	bs.StartPhase(obs.BuildEval, 0)
	t0 = time.Now()
	pg1, err := mm.Prob(mroot, p.probTable(plan.GroupSeq))
	res.Phases.Eval = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.Yield = 1 - pg1
	// Publishing is reporting, not evaluation: it runs after the root
	// span (and with it the eval span) ends, so the phase spans cover
	// the whole root.
	evalSpan.End()
	res.Stats.publish(rec)
	publishResult(rec, res)
	return res, nil
}

// EvaluateOnCodedROBDD computes the same estimate without ever
// building the ROMDD, by walking bit groups directly on the coded
// ROBDD. It exists as an internal validation route and as the
// conversion-ablation baseline.
func EvaluateOnCodedROBDD(sys *System, opts Options) (*Result, error) {
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	encDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Phases.Prepare = prepDur
	res.Phases.Encode = encDur
	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	bm := bdd.New(g.Netlist.NumInputs(), p.opts.bddManagerOptions()...)
	root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	res.Phases.Compile = time.Since(t0)
	res.Stats.BDD = bm.Stats()
	res.Stats.CompilePeakLive = bm.ResetPeakLive()
	res.ROBDDPeak = res.Stats.CompilePeakLive
	if err != nil {
		return res, fmt.Errorf("yield: compiling coded ROBDD: %w", err)
	}
	res.CodedROBDDSize = bm.Size(root)
	groupOf, bitOf := groupMeta(g)
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	pg1, err := convert.Prob(bm, root, spec, p.probTable(plan.GroupSeq))
	if err != nil {
		return nil, err
	}
	res.Phases.Eval = time.Since(t0)
	res.Stats.ConvertPeakLive = bm.PeakLive()
	res.ROBDDPeak = max(res.ROBDDPeak, res.Stats.ConvertPeakLive)
	res.Yield = 1 - pg1
	return res, nil
}

// EvaluateDirectMDD builds the ROMDD of G directly with MDD apply
// operations (the route of the ROMDD packages [23, 29] the paper
// argues against) and evaluates on it. For a given MV ordering the
// resulting canonical ROMDD is identical to the converted one; what
// differs is the cost of construction — the quantity the ablation
// benchmark measures.
func EvaluateDirectMDD(sys *System, opts Options) (*Result, error) {
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	encDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Phases.Prepare = prepDur
	res.Phases.Encode = encDur
	// The heuristic orderings are defined on the binary netlist, so
	// compute the plan exactly as the main route does and reuse its
	// group sequence.
	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	mm, mroot, err := buildDirectMDD(sys.FaultTree, p.m, len(sys.Components), plan.GroupSeq, p.opts.NodeLimit)
	if err != nil {
		return res, fmt.Errorf("yield: direct ROMDD construction: %w", err)
	}
	res.Phases.Convert = time.Since(t0)
	res.Stats.MDD = mm.BuildStats()
	res.ROMDDSize = mm.Size(mroot)
	t0 = time.Now()
	pg1, err := mm.Prob(mroot, p.probTable(plan.GroupSeq))
	if err != nil {
		return nil, err
	}
	res.Phases.Eval = time.Since(t0)
	res.Yield = 1 - pg1
	return res, nil
}

// buildDirectMDD constructs G(w, v_1..v_M) directly as an ROMDD: the
// filter gates become MDD literals and the fault tree is applied gate
// by gate.
func buildDirectMDD(f *logic.Netlist, m, c int, groupSeq []int, nodeLimit int) (*mdd.Manager, mdd.Node, error) {
	mvLevelOf := make([]int, len(groupSeq))
	domains := make([]int, len(groupSeq))
	naturalDomains := make([]int, len(groupSeq))
	naturalDomains[0] = m + 2
	for l := 1; l <= m; l++ {
		naturalDomains[l] = c
	}
	for mvLevel, gi := range groupSeq {
		mvLevelOf[gi] = mvLevel
		domains[mvLevel] = naturalDomains[gi]
	}
	mm, err := mdd.New(domains, mdd.WithNodeLimit(nodeLimit))
	if err != nil {
		return nil, mdd.False, err
	}
	wLevel := mvLevelOf[0]
	// x_i = ⋁_l [w ≥ l] ∧ [v_l = i].
	xs := make([]mdd.Node, c)
	for i := range xs {
		xs[i] = mdd.False
	}
	for l := 1; l <= m; l++ {
		geq, err := mm.LiteralGeq(wLevel, l)
		if err != nil {
			return nil, mdd.False, err
		}
		for i := 0; i < c; i++ {
			eq, err := mm.LiteralEq(mvLevelOf[l], i)
			if err != nil {
				return nil, mdd.False, err
			}
			term, err := mm.And(geq, eq)
			if err != nil {
				return nil, mdd.False, err
			}
			xs[i], err = mm.Or(xs[i], term)
			if err != nil {
				return nil, mdd.False, err
			}
		}
	}
	fOut, err := applyNetlistMDD(mm, f, xs)
	if err != nil {
		return nil, mdd.False, err
	}
	sat, err := mm.LiteralGeq(wLevel, m+1)
	if err != nil {
		return nil, mdd.False, err
	}
	root, err := mm.Or(sat, fOut)
	if err != nil {
		return nil, mdd.False, err
	}
	return mm, root, nil
}

// applyNetlistMDD evaluates a netlist over MDD-valued inputs.
func applyNetlistMDD(mm *mdd.Manager, f *logic.Netlist, inputs []mdd.Node) (mdd.Node, error) {
	out, ok := f.Output()
	if !ok {
		return mdd.False, logic.ErrNoOutput
	}
	vals := make(map[logic.GateID]mdd.Node, f.NumNodes())
	var verr error
	if err := f.VisitDepthFirst(func(id logic.GateID, g logic.Gate) {
		if verr != nil {
			return
		}
		var r mdd.Node
		var err error
		switch g.Kind {
		case logic.InputKind:
			r = inputs[f.InputOrdinal(id)]
		case logic.ConstKind:
			r = mdd.False
			if g.Value {
				r = mdd.True
			}
		case logic.NotKind:
			r, err = mm.Not(vals[g.Fanin[0]])
		case logic.AndKind, logic.NandKind:
			r = mdd.True
			for _, fid := range g.Fanin {
				if r, err = mm.And(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.NandKind {
				r, err = mm.Not(r)
			}
		case logic.OrKind, logic.NorKind:
			r = mdd.False
			for _, fid := range g.Fanin {
				if r, err = mm.Or(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.NorKind {
				r, err = mm.Not(r)
			}
		case logic.XorKind, logic.XnorKind:
			r = mdd.False
			for _, fid := range g.Fanin {
				if r, err = mm.Xor(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.XnorKind {
				r, err = mm.Not(r)
			}
		default:
			err = fmt.Errorf("yield: unknown gate kind %v", g.Kind)
		}
		if err != nil {
			verr = err
			return
		}
		vals[id] = r
	}); err != nil {
		return mdd.False, err
	}
	if verr != nil {
		return mdd.False, verr
	}
	return vals[out], nil
}

// maxBruteForceComponents bounds the exact reference evaluator.
const maxBruteForceComponents = 20

// BruteForce computes Y_M exactly (up to float64 rounding) by
// inclusion–exclusion over failed-component sets; it is exponential in
// C and restricted to C ≤ 20. It shares the model preparation with
// Evaluate, so it validates everything downstream of the distribution
// arithmetic.
func BruteForce(sys *System, opts Options) (*Result, error) {
	p, err := prepare(sys, opts)
	if err != nil {
		return nil, err
	}
	c := len(sys.Components)
	if c > maxBruteForceComponents {
		return nil, fmt.Errorf("yield: brute force limited to %d components, system has %d", maxBruteForceComponents, c)
	}
	// subsetP[mask] = Σ_{i ∈ mask} P'_i.
	size := 1 << c
	subsetP := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		low := mask & (-mask)
		i := 0
		for 1<<i != low {
			i++
		}
		subsetP[mask] = subsetP[mask^low] + p.pprime[i]
	}
	// functioning[mask]: F(mask) == 0.
	functioning := make([]bool, size)
	assign := make([]bool, c)
	for mask := 0; mask < size; mask++ {
		for i := 0; i < c; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		v, err := sys.FaultTree.Eval(assign)
		if err != nil {
			return nil, err
		}
		functioning[mask] = !v
	}
	yield := 0.0
	work := make([]float64, size)
	for k := 0; k <= p.m; k++ {
		if p.qprime[k] == 0 {
			continue
		}
		// work[mask] = P(all k lethal defects land within mask)
		// = subsetP[mask]^k; then the Möbius transform over the subset
		// lattice turns it into P(failed set == mask).
		for mask := 0; mask < size; mask++ {
			work[mask] = math.Pow(subsetP[mask], float64(k))
		}
		for bit := 0; bit < c; bit++ {
			for mask := 0; mask < size; mask++ {
				if mask&(1<<bit) != 0 {
					work[mask] -= work[mask^(1<<bit)]
				}
			}
		}
		yk := 0.0
		for mask := 0; mask < size; mask++ {
			if functioning[mask] {
				yk += work[mask]
			}
		}
		yield += p.qprime[k] * yk
	}
	g, err := encode.BuildG(sys.FaultTree, p.m)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Yield = yield
	return res, nil
}
